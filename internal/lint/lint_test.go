package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each analyzer runs over at least one fixture package with flagged
// sites (// want annotations) and one with allowed counterparts; the
// linttest runner fails on both unexpected and missing diagnostics, so
// every fixture checks acceptance and rejection together.

func TestDetMap(t *testing.T) {
	linttest.Run(t, lint.DetMap, "sim", "detmaputil")
}

func TestZeroDefault(t *testing.T) {
	linttest.Run(t, lint.ZeroDefault, "zerodefault")
}

func TestFloatEq(t *testing.T) {
	linttest.Run(t, lint.FloatEq, "floateq")
}

// The interprocedural analyzers: linttest runs the analyzer over each
// fixture package's fixture dependencies first, so the wants below
// assert on diagnostics that only exist because of imported facts.
// quickcfg holds unseeded testing/quick configs, which clocktaint also
// owns.

func TestClockTaint(t *testing.T) {
	linttest.Run(t, lint.ClockTaint, "sched", "quickcfg")
}

func TestRngEscape(t *testing.T) {
	linttest.Run(t, lint.RngEscape, "rngescape")
}

// The local shapes the interprocedural analyzers also own: direct
// wall-clock and global-rand use in critical packages (cluster,
// eventsim; detmaputil is not critical) for clocktaint, and literal
// spawn sites for rngescape.

func TestWallClock(t *testing.T) {
	linttest.Run(t, lint.ClockTaint, "cluster", "eventsim", "detmaputil")
}

func TestRngShare(t *testing.T) {
	linttest.Run(t, lint.RngEscape, "rngshare")
}

func TestAliasRet(t *testing.T) {
	linttest.Run(t, lint.AliasRet, "aliasstate", "aliasret")
}

// TestStaleDirectives covers directive hygiene end to end: stale,
// unknown, and reasonless directives in one critical fixture package
// (linttest appends the stale check for the analyzer under test after
// its pass, like the driver does per unit).
func TestStaleDirectives(t *testing.T) {
	linttest.Run(t, lint.DetMap, "workload")
}
