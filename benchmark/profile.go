package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileTop runs `go tool pprof -top -cum` on a CPU profile and returns
// every function's cumulative share of the samples, in percent.
func profileTop(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-cum",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", path)
	text, err := cmd.Output()
	if err != nil {
		detail := ""
		if ee, ok := err.(*exec.ExitError); ok {
			detail = ": " + strings.TrimSpace(string(ee.Stderr))
		}
		return nil, fmt.Errorf("go tool pprof: %w%s", err, detail)
	}
	return parseTop(string(text))
}

// parseTop reads the table `pprof -top` prints: a header ending in the
// line "flat flat% sum% cum cum%", then one row per function whose fifth
// column is the cumulative percentage and whose remainder is the name.
func parseTop(text string) (map[string]float64, error) {
	cum := map[string]float64{}
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		cum[name] += pct
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("pprof output has no table header")
	}
	return cum, nil
}
