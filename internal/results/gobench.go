// go test -bench output as a results Report, so the headline Go
// benchmarks gate through the same baseline pipeline as the exhibit
// sweeps: deterministic custom metrics (fitness cells per round, fixed-
// seed JCTs, allocs/op of a single-goroutine benchmark) compare exactly,
// while wall-clock measurements and byte counts (ns/op, us/round, B/op)
// are recorded as Volatile — archived for trend inspection, never
// compared — except the byte counts of exactGoBenchBytes.
//
// The flow mirrors the exhibit gate: CI runs the benchmarks with a fixed
// iteration count (-benchtime Nx, so per-iteration custom metrics are
// deterministic), pipes the output through pollux-bench -gobench, and
// gates against bench/baselines/gobench.json.
package results

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// GoBenchScale is the Report.Scale of parsed benchmark output; it keeps
// the scale-mismatch check meaningful against exhibit baselines.
const GoBenchScale = "gobench"

// volatileGoBenchUnits are the per-iteration measurements that vary run
// to run on an unchanged tree. Everything else a benchmark reports via
// b.ReportMetric is presumed deterministic for a fixed seed and
// iteration count, and gates exactly. That includes allocs/op, which
// only -benchmem or b.ReportAllocs emits: CI asks for it on benchmarks
// that run on one goroutine, where the count repeats.
var volatileGoBenchUnits = map[string]bool{
	"ns/op":    true,
	"B/op":     true,
	"MB/s":     true,
	"us/round": true, // BenchmarkReplayRound's wall-clock per-round cost
}

// exactGoBenchBytes names the benchmarks whose B/op repeats on an
// unchanged tree, and so gates exactly: one goroutine, a collection
// before every timed iteration, and nothing sized by timing.
// BenchmarkServiceRoundSteady read the same B/op in 20 of 20 runs of CI's
// command, so a whole-view allocation coming back into the round fails
// the gate even where it adds no allocs/op.
var exactGoBenchBytes = map[string]bool{
	"BenchmarkServiceRoundSteady": true,
}

// ParseGoBench reads `go test -bench` output and returns one Record per
// benchmark (sub-benchmarks included, the -GOMAXPROCS suffix stripped),
// in output order. Non-benchmark lines (test chatter, the goos/pkg
// header, PASS) are ignored. An input with no benchmark lines is an
// error — it usually means a bad -bench filter produced an empty gate.
// So is a result line the JSON report could not carry unchanged: one that
// is not valid UTF-8, or a value that is not a finite number.
func ParseGoBench(r io.Reader) (Report, error) {
	rep := Report{Scale: GoBenchScale}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		// A result line is "BenchmarkName[-P] N value unit [value unit]...".
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // e.g. a RUN/PASS line mentioning a benchmark name
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i] // strip the -GOMAXPROCS suffix
			}
		}
		if !utf8.ValidString(line) {
			return Report{}, fmt.Errorf("results: %q: result line is not valid UTF-8", name)
		}
		rec := Record{Exhibit: name, Scale: GoBenchScale}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return Report{}, fmt.Errorf("results: %s: bad value %q", name, fields[i])
			}
			unit := fields[i+1]
			rec.Metrics = append(rec.Metrics, Metric{
				Name:     unit,
				Value:    v,
				Unit:     unit,
				Volatile: volatileGoBenchUnits[unit] && !(unit == "B/op" && exactGoBenchBytes[name]),
			})
		}
		rep.Records = append(rep.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return Report{}, fmt.Errorf("results: read go-bench output: %w", err)
	}
	if len(rep.Records) == 0 {
		return Report{}, fmt.Errorf("results: no benchmark result lines in input")
	}
	return rep, nil
}
