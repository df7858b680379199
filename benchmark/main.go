// Command benchmark is the repository's performance yardstick: five
// closed-loop workloads over the simulator, the replay testbed and the
// scheduler service, measured from outside through the packages' public
// functions. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var cfg runConfig
	var opt suiteOptions
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process and print its result line (default: every workload of BENCHMARK.json, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "how long each workload measures (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 = run with spans and a CPU profile as well and report the per-layer metrics")
	flag.BoolVar(&cfg.short, "short", false, "toy sizes, for the smoke test")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build", "directory for span files, CPU profiles and the checkpoint")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced -workload run (default <scratch>/<workload>.spans.json)")
	flag.BoolVar(&opt.aa, "aa", false, "run the untraced set twice and compare the pairs with the bounds; exit 1 if one is outside")
	flag.StringVar(&opt.outPath, "out", "", "write every result of the suite to this JSON file")
	flag.Parse()
	cfg.trace = trace != 0

	if cfg.workload == "" {
		os.Exit(runSuite(cfg, opt, os.Stdout))
	}
	var def *workloadDef
	for _, d := range workloads(cfg.short) {
		if d.name == cfg.workload {
			def = d
		}
	}
	if def == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", cfg.workload)
		os.Exit(2)
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(cfg.scratch, cfg.workload+".spans.json")
	}
	out, err := runWorkload(def, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED %s\n", cfg.workload, f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}
