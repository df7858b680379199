package results

import (
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/sched
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPolluxScheduleIncremental/full-8         	       2	 555514208 ns/op	  40304640 cells/round
BenchmarkPolluxScheduleIncremental/incremental-8  	       2	  55824410 ns/op	   7714560 cells/round
BenchmarkReplayRound/local	       1	1200000 ns/op	 83.5 us/round	 3600 avgJCT-s
BenchmarkFitWarmTail-2          	      20	   3729690 ns/op	    7536 B/op	      10 allocs/op
BenchmarkServiceRoundSteady-2   	      20	   1885620 ns/op	  103242 B/op	      44 allocs/op
PASS
ok  	repro/internal/sched	4.765s
`

func TestParseGoBench(t *testing.T) {
	rep, err := ParseGoBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != GoBenchScale {
		t.Errorf("scale = %q, want %q", rep.Scale, GoBenchScale)
	}
	if len(rep.Records) != 5 {
		t.Fatalf("%d records, want 5: %+v", len(rep.Records), rep.Records)
	}
	full := rep.Records[0]
	if full.Exhibit != "BenchmarkPolluxScheduleIncremental/full" {
		t.Errorf("exhibit = %q (GOMAXPROCS suffix not stripped?)", full.Exhibit)
	}
	cells, ok := full.Metric("cells/round")
	if !ok || cells.Value != 40304640 {
		t.Errorf("cells/round = %+v, want 40304640", cells)
	}
	if cells.Volatile {
		t.Error("cells/round marked volatile; it is deterministic and must gate")
	}
	ns, ok := full.Metric("ns/op")
	if !ok || !ns.Volatile {
		t.Errorf("ns/op = %+v, want volatile", ns)
	}
	replay := rep.Records[2]
	if replay.Exhibit != "BenchmarkReplayRound/local" {
		t.Errorf("exhibit = %q (suffix-less name mangled?)", replay.Exhibit)
	}
	if us, ok := replay.Metric("us/round"); !ok || !us.Volatile {
		t.Errorf("us/round = %+v, want volatile", us)
	}
	if jct, ok := replay.Metric("avgJCT-s"); !ok || jct.Volatile || jct.Value != 3600 {
		t.Errorf("avgJCT-s = %+v, want deterministic 3600", jct)
	}
	fit := rep.Records[3]
	if a, ok := fit.Metric("allocs/op"); !ok || a.Volatile || a.Value != 10 {
		t.Errorf("allocs/op = %+v, want deterministic 10 (-benchmem counts gate exactly)", a)
	}
	if b, ok := fit.Metric("B/op"); !ok || !b.Volatile {
		t.Errorf("B/op = %+v, want volatile", b)
	}
	// The steady service round's byte count repeats, so it gates too.
	if b, ok := rep.Records[4].Metric("B/op"); !ok || b.Volatile || b.Value != 103242 {
		t.Errorf("%s B/op = %+v, want deterministic 103242", rep.Records[4].Exhibit, b)
	}
}

func TestParseGoBenchEmptyInputFails(t *testing.T) {
	if _, err := ParseGoBench(strings.NewReader("PASS\nok \trepro\t0.1s\n")); err == nil {
		t.Error("no benchmark lines should be an error, not an empty gate")
	}
}

// TestVolatileMetricsSkipValueComparison pins the Volatile contract end
// to end: Canonical zeroes the value, and Compare checks existence but
// never the value — while a missing volatile metric still fails.
func TestVolatileMetricsSkipValueComparison(t *testing.T) {
	cur, err := ParseGoBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	base := cur.Canonical()
	if m, _ := base.Records[0].Metric("ns/op"); m.Value != 0 {
		t.Errorf("canonical ns/op = %v, want 0", m.Value)
	}
	if m, _ := base.Records[0].Metric("cells/round"); m.Value != 40304640 {
		t.Errorf("canonical cells/round = %v, want the measured value kept", m.Value)
	}

	// A rerun with different timings but identical deterministic metrics
	// passes the gate.
	rerun := strings.ReplaceAll(sampleBenchOutput, "555514208 ns/op", "999999999 ns/op")
	cur2, err := ParseGoBench(strings.NewReader(rerun))
	if err != nil {
		t.Fatal(err)
	}
	if cmp := Compare(base, cur2, Options{}); !cmp.OK() {
		t.Errorf("volatile-only drift failed the gate:\n%s", cmp)
	}

	// A deterministic metric drifting fails it.
	drift := strings.ReplaceAll(sampleBenchOutput, "40304640 cells/round", "50000000 cells/round")
	cur3, err := ParseGoBench(strings.NewReader(drift))
	if err != nil {
		t.Fatal(err)
	}
	if cmp := Compare(base, cur3, Options{}); cmp.OK() {
		t.Error("cells/round drift passed the gate")
	}

	// A benchmark that stops reporting a volatile metric fails the gate:
	// existence is still checked.
	missing := strings.ReplaceAll(sampleBenchOutput, " 83.5 us/round", "")
	cur4, err := ParseGoBench(strings.NewReader(missing))
	if err != nil {
		t.Fatal(err)
	}
	if cmp := Compare(base, cur4, Options{}); cmp.OK() {
		t.Error("dropped us/round metric passed the gate")
	}
}
