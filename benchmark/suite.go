package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json: the contract the driver checks the
// benchmark against, and the one place the bounds are written down.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// suiteReport is what -out writes: the machine, then every workload's
// result line per set of runs.
type suiteReport struct {
	Env      map[string]string     `json:"env"`
	Untraced []map[string]*outcome `json:"untraced"` // one map per set; -aa makes two
	Traced   map[string]*outcome   `json:"traced,omitempty"`
}

type suiteOptions struct {
	aa      bool
	outPath string
}

// runSuite runs every workload of BENCHMARK.json in a child process of
// its own, one after the other, and prints each metric by name. It
// returns the process's exit code.
func runSuite(cfg runConfig, opt suiteOptions, stdout io.Writer) int {
	spec, err := loadSpec("BENCHMARK.json") // the suite runs from the root of the checkout
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	if cfg.seconds <= 0 && !cfg.short {
		cfg.seconds = float64(spec.RunSeconds)
	}
	var procs []string
	for _, d := range workloads(cfg.short) {
		procs = append(procs, fmt.Sprintf("%s=%d", d.name, min(runtime.NumCPU(), d.procs)))
	}
	report := suiteReport{Env: map[string]string{
		"nproc":       strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":  strings.Join(procs, " "),
		"go_version":  runtime.Version(),
		"git_commit":  gitCommit(),
		"seed":        strconv.FormatInt(cfg.seed, 10),
		"run_seconds": strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
	}}
	code := 0
	runSet := func(trace bool, metrics []metricSpec) map[string]*outcome {
		set := map[string]*outcome{}
		for _, w := range spec.Workloads {
			out, err := runChild(w.Name, cfg, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				code = 1
				continue
			}
			set[w.Name] = out
			printOutcome(stdout, w.Name, out, metrics)
			if !out.Correct {
				code = 1
			}
		}
		return set
	}

	sets := 1
	if opt.aa {
		sets = 2
	}
	for i := 0; i < sets; i++ {
		fmt.Fprintf(stdout, "# untraced set %d of %d: seed %d, %g s per workload, GOMAXPROCS %s\n", i+1, sets, cfg.seed, cfg.seconds, report.Env["gomaxprocs"])
		report.Untraced = append(report.Untraced, runSet(false, spec.EndToEnd))
	}
	if cfg.trace {
		fmt.Fprintf(stdout, "# traced set: spans in %s/<workload>.spans.json; 0 = not measured on that workload\n", cfg.scratch)
		report.Traced = runSet(true, spec.PerLayer)
		if out := report.Traced[spec.Workloads[0].Name]; out != nil {
			report.Env["bench.calib_s"] = strconv.FormatFloat(out.Metrics["bench.calib_s"].Value, 'g', -1, 64)
		}
	}
	if opt.aa && !compareSets(stdout, spec, report.Untraced[0], report.Untraced[1]) {
		code = 1
	}
	if opt.outPath != "" {
		data, err := json.MarshalIndent(&report, "", " ")
		if err == nil {
			err = os.WriteFile(opt.outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			code = 1
		}
	}
	return code
}

// runChild runs one workload in a fresh process of this binary and
// parses the result line, the last line of its standard output.
func runChild(workload string, cfg runConfig, trace bool) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-scratch", cfg.scratch,
		"-trace", map[bool]string{false: "0", true: "1"}[trace],
	}
	if cfg.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var out outcome
	if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &out, nil
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printOutcome(w io.Writer, workload string, out *outcome, metrics []metricSpec) {
	verdict := "correct"
	if !out.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "%s: %s, %d operations attempted, %d failed (fail_ratio %g)\n",
		workload, verdict, out.Attempted, out.Failed, ratio(float64(out.Failed), float64(out.Attempted)))
	for _, m := range metrics {
		v, ok := out.Metrics[m.Name]
		if !ok {
			fmt.Fprintf(w, "  %-34s MISSING\n", m.Name)
			continue
		}
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, v.Value, v.Unit)
	}
}

// compareSets prints, per workload and end-to-end metric, the two values
// of an A/A pair, their relative difference and the bound, and reports
// whether every pair agrees within its bound.
func compareSets(w io.Writer, spec *benchSpec, a, b map[string]*outcome) bool {
	ok := true
	fmt.Fprintf(w, "# A/A: the same code twice; a pair outside its bound means the metric is too noisy to gate on\n")
	fmt.Fprintf(w, "%-22s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, load := range spec.Workloads {
		ra, rb := a[load.Name], b[load.Name]
		if ra == nil || rb == nil {
			ok = false
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			diff := math.Abs(ratio(vb-va, va))
			mark := ""
			if diff > m.Bound {
				mark = "  OUTSIDE"
				ok = false
			}
			fmt.Fprintf(w, "%-22s %-18s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				load.Name, m.Name, va, vb, 100*diff, 100*m.Bound, mark)
		}
	}
	return ok
}
