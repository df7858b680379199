// Command pollux-bench is the sweep orchestrator for the Pollux paper's
// evaluation exhibits (see EXPERIMENTS.md for paper-vs-measured results):
// it runs a set of exhibits at a scale preset, prints their tables, and
// feeds the structured results pipeline (internal/results) — JSON
// emission, markdown rendering, and the baseline regression gate.
//
// Usage:
//
//	pollux-bench [-scale quick|full|mega] [-exhibits all|table2,fig7,...]
//	             [-json out.json] [-md out.md]
//	             [-baseline bench/baselines/quick.json] [-update-baseline]
//	             [-parallel n] [-refitworkers n] [-quiet]
//	             [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	             [-gobench bench-output.txt]
//
// With -gobench the report is parsed from `go test -bench` output instead
// of running a sweep, so Go benchmark regressions gate through the same
// baseline pipeline: deterministic custom metrics (cells/round, fixed-seed
// JCTs) compare exactly while wall-clock measurements are Volatile —
// archived, never compared. CI pins -benchtime to a fixed iteration count
// so per-iteration custom metrics are reproducible.
//
// Quick scale finishes in a couple of minutes; full scale approximates
// the paper's 160-job / 64-GPU / 8-seed setup. Seeds are simulated
// concurrently (up to -parallel at a time, default GOMAXPROCS) and the
// Pollux GA evaluates fitness on a worker pool; results are bit-identical
// at any parallelism, which is why the quick-scale baseline under
// bench/baselines/ can act as a deterministic regression gate:
//
//	pollux-bench -baseline bench/baselines/quick.json
//
// exits non-zero with a per-metric diff report when any exhibit metric
// moves outside its recorded tolerance band (exact for closed-form
// exhibits, small relative bands for simulation-backed ones). After an
// intentional change, refresh with -update-baseline; a run filtered by
// -exhibits merges into the existing baseline instead of truncating it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/results"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pollux-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sweep cliutil.Sweep
	sweep.Register(fs, "quick", true)
	var prof cliutil.Profile
	prof.Register(fs)
	exhibits := fs.String("exhibits", "all", "comma-separated exhibit ids, or 'all'")
	gobench := fs.String("gobench", "",
		"gate `go test -bench` output ('-' for stdin) instead of running a sweep; pair with -baseline bench/baselines/gobench.json")
	jsonOut := fs.String("json", "", "write the sweep report as JSON ('-' for stdout)")
	mdOut := fs.String("md", "", "write a per-exhibit headline-metric markdown table ('-' for stdout)")
	baselinePath := fs.String("baseline", "", "baseline JSON to gate against; exits 1 on out-of-tolerance metrics")
	update := fs.Bool("update-baseline", false, "rewrite -baseline from this run instead of comparing")
	quiet := fs.Bool("quiet", false, "suppress the per-exhibit text tables")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *update && *baselinePath == "" {
		fmt.Fprintln(stderr, "pollux-bench: -update-baseline requires -baseline <path>")
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(stderr, "pollux-bench:", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "pollux-bench:", err)
		}
	}()

	var report results.Report
	subset := false
	if *gobench != "" {
		// Gate mode for Go benchmark output: the report comes from a
		// `go test -bench` run instead of an exhibit sweep, so the shared
		// -json/-baseline/-update-baseline plumbing below applies as-is.
		if *exhibits != "all" {
			fmt.Fprintln(stderr, "pollux-bench: -gobench and -exhibits are mutually exclusive")
			return 2
		}
		rep, err := readGoBench(*gobench)
		if err != nil {
			fmt.Fprintln(stderr, "pollux-bench:", err)
			return 1
		}
		rep.StartedAt = time.Now().UTC().Format(time.RFC3339)
		rep.GoVersion = runtime.Version()
		rep.Git = results.GitMetadata(".")
		report = rep
	} else {
		sc, err := sweep.Scale()
		if err != nil {
			fmt.Fprintln(stderr, "pollux-bench:", err)
			return 2
		}

		var ids []string
		ids, subset, err = resolveExhibits(*exhibits)
		if err != nil {
			fmt.Fprintln(stderr, "pollux-bench:", err)
			return 2
		}

		report = results.Report{
			Scale:     sweep.ScaleName,
			StartedAt: time.Now().UTC().Format(time.RFC3339),
			GoVersion: runtime.Version(),
			Git:       results.GitMetadata("."),
		}
		for _, id := range ids {
			start := time.Now()
			o, err := experiments.Run(id, sc)
			if err != nil {
				fmt.Fprintln(stderr, "pollux-bench:", err)
				return 1
			}
			elapsed := time.Since(start)
			rec := o.Record(sweep.ScaleName)
			rec.WallClockSec = elapsed.Seconds()
			report.Records = append(report.Records, rec)
			if !*quiet {
				fmt.Fprint(stdout, o)
				fmt.Fprintf(stdout, "(%s in %s, scale=%s)\n\n", id, elapsed.Round(time.Millisecond), sweep.ScaleName)
			}
		}
	}

	if *jsonOut != "" {
		if err := emit(*jsonOut, stdout, func(w io.Writer) error {
			return results.WriteJSON(w, report)
		}); err != nil {
			fmt.Fprintln(stderr, "pollux-bench: write -json:", err)
			return 1
		}
	}
	if *mdOut != "" {
		if err := emit(*mdOut, stdout, func(w io.Writer) error {
			_, err := io.WriteString(w, results.Markdown(report, experiments.Headlines()))
			return err
		}); err != nil {
			fmt.Fprintln(stderr, "pollux-bench: write -md:", err)
			return 1
		}
	}

	switch {
	case *update:
		canon := report.Canonical()
		if base, err := results.ReadFile(*baselinePath); err == nil {
			if base.Scale != "" && base.Scale != report.Scale {
				// Refuse to mix scales: a filtered full-scale update
				// merged into the quick baseline would corrupt it.
				fmt.Fprintf(stderr, "pollux-bench: baseline %s is scale %q but this run is scale %q\n",
					*baselinePath, base.Scale, report.Scale)
				return 1
			}
			if subset {
				// A filtered sweep refreshes only the exhibits it ran.
				// Canonicalize the kept records too, so a baseline seeded
				// out-of-band from a raw -json emission converges to the
				// bit-reproducible form instead of preserving volatile
				// fields forever.
				canon = results.Merge(base.Canonical(), canon)
			}
		} else if !os.IsNotExist(err) {
			// An existing-but-unreadable baseline must not be silently
			// truncated to this run's exhibits.
			fmt.Fprintln(stderr, "pollux-bench: read baseline for update:", err)
			return 1
		}
		if err := results.WriteFile(*baselinePath, canon); err != nil {
			fmt.Fprintln(stderr, "pollux-bench: update baseline:", err)
			return 1
		}
		// Status goes to stderr, like the gate report: stdout may be
		// carrying the -json/-md "-" stream.
		fmt.Fprintf(stderr, "baseline updated: %s (%d exhibit(s))\n", *baselinePath, len(canon.Records))
	case *baselinePath != "":
		base, err := results.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "pollux-bench: read baseline:", err)
			return 1
		}
		// The gate report goes to stderr: stdout may be carrying the
		// machine-readable -json/-md stream ("-").
		cmp := results.Compare(base, report, results.Options{Subset: subset})
		fmt.Fprint(stderr, cmp)
		if !cmp.OK() {
			fmt.Fprintf(stderr, "pollux-bench: %d metric(s) outside baseline tolerance (see report above)\n",
				len(cmp.Failures))
			return 1
		}
	}
	return 0
}

// resolveExhibits parses the -exhibits filter against the registry,
// preserving the registry's paper order; subset reports whether the run
// covers fewer exhibits than a full sweep.
func resolveExhibits(filter string) (ids []string, subset bool, err error) {
	all := experiments.All()
	if filter == "all" || filter == "" {
		return all, false, nil
	}
	known := make(map[string]bool, len(all))
	for _, id := range all {
		known[id] = true
	}
	want := make(map[string]bool)
	for _, id := range strings.Split(filter, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !known[id] {
			return nil, false, fmt.Errorf("unknown exhibit %q (have %v)", id, all)
		}
		want[id] = true
	}
	if len(want) == 0 {
		return nil, false, fmt.Errorf("empty -exhibits filter")
	}
	for _, id := range all {
		if want[id] {
			ids = append(ids, id)
		}
	}
	return ids, len(ids) < len(all), nil
}

// readGoBench parses `go test -bench` output from a file, or from stdin
// when path is "-".
func readGoBench(path string) (results.Report, error) {
	if path == "-" {
		return results.ParseGoBench(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return results.Report{}, err
	}
	defer f.Close()
	rep, err := results.ParseGoBench(f)
	if err != nil {
		return results.Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// emit writes via w to a path, or to stdout when path is "-".
func emit(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
