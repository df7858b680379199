// Package quickcfg is the clocktaint fixture for testing/quick configs:
// quick seeds a nil Rand from time.Now, so in any package, test files
// included, a config must carry a seeded Rand.
package quickcfg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func prop(x int) bool { return x >= 0 || x < 0 }

func TestFlagged(t *testing.T) {
	_ = quick.Check(prop, &quick.Config{MaxCount: 10}) // want `quick\.Config without Rand`
	cfg := quick.Config{MaxCountScale: 2}              // want `quick\.Config without Rand`
	_ = quick.Check(prop, &cfg)
	_ = quick.Check(prop, nil)            // want `nil config passed to quick\.Check`
	_ = quick.CheckEqual(prop, prop, nil) // want `nil config passed to quick\.CheckEqual`
}

func TestAllowed(t *testing.T) {
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(1))}
	_ = quick.Check(prop, cfg)
	_ = quick.CheckEqual(prop, prop, cfg)
}

func TestJustified(t *testing.T) {
	//pollux:clocktaint-ok exploratory property, failures are re-run by hand
	_ = quick.Check(prop, nil)
}
