package cliutil

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestSweepRegisterAndScale(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var s Sweep
	s.Register(fs, "quick")
	if err := fs.Parse([]string{"-scale", "full"}); err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scale()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Jobs != experiments.FullScale().Jobs {
		t.Errorf("scale not resolved to full: %+v", sc)
	}
}

// TestSweepWithoutParallelFlag: GOMAXPROCS is the one bound on a run's
// parallelism, so Sweep registers -scale and no worker-count flag.
func TestSweepWithoutParallelFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var s Sweep
	s.Register(fs, "")
	for _, name := range []string{"parallel", "refitworkers"} {
		if fs.Lookup(name) != nil {
			t.Errorf("-%s registered", name)
		}
	}
	if err := fs.Parse([]string{"-parallel", "2"}); err == nil {
		t.Error("-parallel parsed")
	}
	if s.ScaleName != "" {
		t.Errorf("default scale = %q, want empty", s.ScaleName)
	}
	if _, err := s.Scale(); err == nil {
		t.Error("empty scale name resolved without error")
	}
}

func TestFrontEndFlags(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	var fe FrontEnd
	fe.Register(fs)
	err := fs.Parse([]string{
		"-admission", "quota", "-priority", "slo",
		"-quota", "batch=10, burst=2", "-default-quota", "-1",
		"-tenants", "prod:12:2,batch:20",
	})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := fe.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Admission != "quota" || opts.Priority != "slo" || opts.DefaultQuota != -1 {
		t.Errorf("options wrong: %+v", opts)
	}
	if opts.Quotas["batch"] != 10 || opts.Quotas["burst"] != 2 {
		t.Errorf("quotas wrong: %+v", opts.Quotas)
	}
	specs, err := fe.TenantSpecs()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "prod" || specs[0].Jobs != 12 ||
		specs[0].SLOHours != 2 || specs[1].Name != "batch" || specs[1].SLOHours != 0 {
		t.Errorf("tenant specs wrong: %+v", specs)
	}
}

func TestFrontEndZero(t *testing.T) {
	opts, err := FrontEnd{}.Options()
	if err != nil || opts != nil {
		t.Errorf("zero front end should build nil options, got %+v, %v", opts, err)
	}
	specs, err := FrontEnd{}.TenantSpecs()
	if err != nil || specs != nil {
		t.Errorf("zero front end should build nil tenant specs, got %+v, %v", specs, err)
	}
}

func TestFrontEndParseErrors(t *testing.T) {
	for _, fe := range []FrontEnd{
		{Quotas: "batch"},
		{Quotas: "batch=x"},
		{Quotas: "=3"},
	} {
		if _, err := fe.Options(); err == nil {
			t.Errorf("Options() accepted %+v", fe)
		}
	}
	for _, fe := range []FrontEnd{
		{Tenants: "prod"},
		{Tenants: "prod:0"},
		{Tenants: ":3"},
		{Tenants: "prod:3:x"},
		{Tenants: "prod:3:2:1"},
	} {
		if _, err := fe.TenantSpecs(); err == nil {
			t.Errorf("TenantSpecs() accepted %+v", fe)
		}
	}
	// A tenant named twice is refused by name, not silently merged.
	if _, err := (FrontEnd{Quotas: "burst=1,batch=10,batch=2"}).Options(); err == nil || !strings.Contains(err.Error(), "-quota batch") {
		t.Errorf("duplicate quota: got %v, want an error naming batch", err)
	}
	if _, err := (FrontEnd{Tenants: "prod:12:2,batch:3,prod:5"}).TenantSpecs(); err == nil || !strings.Contains(err.Error(), "-tenants prod") {
		t.Errorf("duplicate tenant: got %v, want an error naming prod", err)
	}
}

func TestProfileWritesFiles(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var p Profile
	p.Register(fs)
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has samples to encode.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i % 7
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestProfileNoFlagsIsNoOp(t *testing.T) {
	stop, err := Profile{}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
