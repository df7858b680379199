package sched

import (
	"testing"
)

func TestClusterUtilityBounds(t *testing.T) {
	v := viewWith(4, 8, 4)
	p := NewPollux(PolluxOptions{Population: 20, Generations: 10}, 41)
	for _, nodes := range []int{1, 2, 4, 8} {
		u := p.ClusterUtility(v, nodes, 8)
		if u < 0 || u > 1+1e-9 {
			t.Errorf("utility(%d nodes) = %v, want in [0, 1]", nodes, u)
		}
	}
}

func TestClusterUtilityZeroCases(t *testing.T) {
	p := NewPollux(PolluxOptions{Population: 10, Generations: 5}, 42)
	empty := &ClusterView{Capacity: []int{4, 4}}
	if u := p.ClusterUtility(empty, 2, 5); u != 0 {
		t.Errorf("utility with no jobs = %v, want 0", u)
	}
	v := viewWith(2, 4, 4)
	if u := p.ClusterUtility(v, 0, 5); u != 0 {
		t.Errorf("utility with zero nodes = %v, want 0", u)
	}
}

func TestClusterUtilityDecreasesWithSize(t *testing.T) {
	// With few jobs, adding nodes dilutes utility: speedups saturate but
	// the GPU denominator keeps growing.
	v := viewWith(2, 8, 4)
	p := NewPollux(PolluxOptions{Population: 30, Generations: 15}, 43)
	small := p.ClusterUtility(v, 1, 15)
	large := p.ClusterUtility(v, 8, 15)
	if large >= small {
		t.Errorf("utility should dilute with size: 1 node %v vs 8 nodes %v", small, large)
	}
}

func TestClusterUtilityClampsToCapacity(t *testing.T) {
	v := viewWith(2, 4, 4)
	p := NewPollux(PolluxOptions{Population: 10, Generations: 5}, 44)
	// Asking for more nodes than the view has must not panic and must
	// behave like the full cluster.
	full := p.ClusterUtility(v, 4, 8)
	over := p.ClusterUtility(v, 100, 8)
	if over <= 0 || full <= 0 {
		t.Errorf("utilities = %v, %v, want > 0", full, over)
	}
}

func TestDesiredClusterNodesEmptyViewReturnsMin(t *testing.T) {
	p := NewPollux(PolluxOptions{Population: 10, Generations: 5}, 45)
	v := &ClusterView{Capacity: []int{4, 4, 4, 4}}
	if n := p.DesiredClusterNodes(v, 2, 4); n != 2 {
		t.Errorf("empty cluster desired nodes = %d, want min 2", n)
	}
}

func TestDesiredClusterNodesWithinBounds(t *testing.T) {
	v := viewWith(6, 8, 4)
	p := NewPollux(PolluxOptions{Population: 20, Generations: 10}, 46)
	n := p.DesiredClusterNodes(v, 2, 6)
	if n < 2 || n > 6 {
		t.Errorf("desired nodes = %d, want in [2, 6]", n)
	}
}
