package main

import (
	"strings"
	"testing"
)

// TestCheckShapeNamesTheFlag: a cluster without nodes or GPUs used to run
// the default 16×4 cluster under a header printing the shape asked for,
// and a node or rack with more GPUs than a GA cell holds cannot be
// scheduled; each is refused with an error that names the flag. The
// defaults and the mega preset's racks pass.
func TestCheckShapeNamesTheFlag(t *testing.T) {
	for _, ok := range [][3]int{{16, 4, 0}, {256, 4, 16}, {1, 65535, 0}, {4, 16383, 8}} {
		if err := checkShape(ok[0], ok[1], ok[2]); err != nil {
			t.Errorf("nodes %d gpus %d racksize %d refused: %v", ok[0], ok[1], ok[2], err)
		}
	}
	for _, c := range []struct {
		name                  string
		nodes, gpus, rackSize int
		want                  string
	}{
		{"nodes -1", -1, 4, 0, "-nodes"},
		{"nodes 0", 0, 4, 0, "-nodes"},
		{"gpus 0", 16, 0, 0, "-gpus"},
		{"gpus -3", 16, -3, 0, "-gpus"},
		{"gpus above a GA cell", 16, 65536, 0, "-gpus"},
		{"rack above a GA cell", 16, 8192, 16, "-racksize"},
	} {
		if err := checkShape(c.nodes, c.gpus, c.rackSize); err == nil || !strings.HasPrefix(err.Error(), c.want+" ") {
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.want)
		}
	}
}
