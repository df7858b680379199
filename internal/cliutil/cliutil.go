// Package cliutil deduplicates the flag and configuration plumbing
// shared by the pollux command-line tools (cmd/pollux-bench,
// cmd/pollux-sim) and the examples: the quick/full/mega scale presets,
// profiling, and the multi-tenant front end, which previously were
// copied flag declarations that drifted whenever a new knob landed in
// only one tool.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"repro/internal/admit"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// Sweep holds the -scale preset name. Register it on a FlagSet, Parse,
// then resolve it with Scale.
type Sweep struct {
	ScaleName string
}

// Register declares -scale. scaleDefault is its default ("quick" for
// pollux-bench; "" for pollux-sim and the scheduler-comparison example,
// where an empty scale means "use the explicit shape").
func (s *Sweep) Register(fs *flag.FlagSet, scaleDefault string) {
	usage := "experiment scale preset: quick, full, or mega"
	if scaleDefault == "" {
		usage += " (empty: use the explicit shape flags)"
	}
	fs.StringVar(&s.ScaleName, "scale", scaleDefault, usage)
}

// Scale resolves the named preset.
func (s Sweep) Scale() (experiments.Scale, error) {
	return experiments.ScaleByName(s.ScaleName)
}

// Profile holds the shared -cpuprofile/-memprofile flags, so hotpath
// profiling of a sweep or a single simulation no longer needs an ad-hoc
// test harness: any pollux command can emit pprof files directly.
type Profile struct {
	CPU string
	Mem string
}

// Register declares the profiling flags.
func (p *Profile) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof heap profile at exit to this file")
}

// Start begins CPU profiling if requested and returns a stop function to
// defer: it stops the CPU profile and, if requested, writes the heap
// profile (after a GC, so the snapshot shows live retention rather than
// garbage). With neither flag set both Start and stop are no-ops.
func (p Profile) Start() (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("cliutil: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cliutil: -cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cliutil: -cpuprofile: %w", err)
			}
		}
		if p.Mem == "" {
			return nil
		}
		f, err := os.Create(p.Mem)
		if err != nil {
			return fmt.Errorf("cliutil: -memprofile: %w", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cliutil: -memprofile: %w", err)
		}
		return f.Close()
	}, nil
}

// FrontEnd holds the multi-tenant serving front-end knobs shared by
// pollux-sim and the multi-tenant example: which admission and priority
// policies to run ahead of the scheduler (internal/admit) and,
// optionally, a tenant mix for the generated trace.
type FrontEnd struct {
	Admission      string
	Priority       string
	Quotas         string
	DefaultQuota   int
	BucketCapacity float64
	BucketRefill   float64
	Tenants        string
}

// Register declares the front-end flags.
func (f *FrontEnd) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Admission, "admission", "",
		"admission policy ahead of the scheduler: always, token-bucket, or quota (empty: no front end unless -priority is set)")
	fs.StringVar(&f.Priority, "priority", "",
		"scheduling-snapshot priority: constant (submission order) or slo (earliest deadline first)")
	fs.StringVar(&f.Quotas, "quota", "",
		`per-tenant admission quotas for -admission quota, e.g. "batch=10,burst=2" (an explicit 0 rejects everything)`)
	fs.IntVar(&f.DefaultQuota, "default-quota", 0,
		"quota for tenants not listed in -quota (0 = unlimited, negative = explicit zero)")
	fs.Float64Var(&f.BucketCapacity, "bucket-capacity", 0,
		"token-bucket burst capacity in jobs (0 = default, negative = explicit zero)")
	fs.Float64Var(&f.BucketRefill, "bucket-refill", 0,
		"token-bucket refill rate in admissions per second (0 = default, negative = explicit zero)")
	fs.StringVar(&f.Tenants, "tenants", "",
		`multi-tenant trace spec "name:jobs[:sloHours]", comma-separated, e.g. "prod:12:2,batch:20" (overrides -jobs)`)
}

// Options builds the admit front-end options from the flags, or nil when
// no front-end flag was given (the zero-cost single-tenant path).
func (f FrontEnd) Options() (*admit.Options, error) {
	if f.Admission == "" && f.Priority == "" && f.Quotas == "" &&
		f.DefaultQuota == 0 && f.BucketCapacity == 0 && f.BucketRefill == 0 {
		return nil, nil
	}
	opts := &admit.Options{
		Admission:      f.Admission,
		Priority:       f.Priority,
		BucketCapacity: f.BucketCapacity,
		BucketRefill:   f.BucketRefill,
		DefaultQuota:   f.DefaultQuota,
	}
	if f.Quotas != "" {
		opts.Quotas = make(map[string]int)
		for _, part := range strings.Split(f.Quotas, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
			if !ok || name == "" {
				return nil, fmt.Errorf("cliutil: -quota entry %q is not tenant=N", part)
			}
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("cliutil: -quota %s: %v", name, err)
			}
			if _, dup := opts.Quotas[name]; dup {
				return nil, fmt.Errorf("cliutil: -quota %s: tenant given twice", name)
			}
			opts.Quotas[name] = n
		}
	}
	return opts, nil
}

// TenantSpecs parses the -tenants flag into workload tenant specs (nil
// when the flag is empty).
func (f FrontEnd) TenantSpecs() ([]workload.TenantSpec, error) {
	if f.Tenants == "" {
		return nil, nil
	}
	var specs []workload.TenantSpec
	for _, part := range strings.Split(f.Tenants, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 3 || fields[0] == "" {
			return nil, fmt.Errorf("cliutil: -tenants entry %q is not name:jobs[:sloHours]", part)
		}
		if slices.ContainsFunc(specs, func(s workload.TenantSpec) bool { return s.Name == fields[0] }) {
			return nil, fmt.Errorf("cliutil: -tenants %s: tenant given twice", fields[0])
		}
		jobs, err := strconv.Atoi(fields[1])
		if err != nil || jobs <= 0 {
			return nil, fmt.Errorf("cliutil: -tenants %s: bad job count %q", fields[0], fields[1])
		}
		spec := workload.TenantSpec{Name: fields[0], Jobs: jobs}
		if len(fields) == 3 {
			slo, err := strconv.ParseFloat(fields[2], 64)
			if err != nil || slo < 0 {
				return nil, fmt.Errorf("cliutil: -tenants %s: bad SLO hours %q", fields[0], fields[2])
			}
			spec.SLOHours = slo
		}
		specs = append(specs, spec)
	}
	return specs, nil
}
