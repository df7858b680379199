package sim

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestClusterAutoscaleCompletesAndSavesCost(t *testing.T) {
	tr := smallOnly(smallTrace(21, 14))
	if len(tr.Jobs) < 5 {
		t.Skip("trace too small")
	}

	fixed := fastCfg(21)
	fixed.Nodes = 8
	resFixed := NewCluster(tr, fastPollux(21), fixed).Run()
	if resFixed.Summary.Completed != len(tr.Jobs) {
		t.Fatalf("fixed cluster completed %d of %d", resFixed.Summary.Completed, len(tr.Jobs))
	}

	auto := fastCfg(21)
	auto.Nodes = 8
	auto.Autoscale = &ClusterAutoscaleConfig{MinNodes: 1, MaxNodes: 8}
	resAuto := NewCluster(tr, fastPollux(21), auto).Run()
	if resAuto.Summary.Completed != len(tr.Jobs) {
		t.Fatalf("autoscaled cluster completed %d of %d", resAuto.Summary.Completed, len(tr.Jobs))
	}

	// Autoscaling trades some completion time for cost: node-seconds
	// must drop relative to holding the max-size cluster the whole run.
	if resAuto.CostNodeSeconds >= resFixed.CostNodeSeconds {
		t.Errorf("autoscaled cost %v not below fixed cost %v",
			resAuto.CostNodeSeconds, resFixed.CostNodeSeconds)
	}
	if resAuto.Summary.AvgJCT > 3*resFixed.Summary.AvgJCT {
		t.Errorf("autoscaled JCT %v more than 3x fixed %v",
			resAuto.Summary.AvgJCT, resFixed.Summary.AvgJCT)
	}
}

func TestClusterAutoscaleNeverExceedsBounds(t *testing.T) {
	tr := smallOnly(smallTrace(22, 10))
	cfg := fastCfg(22)
	cfg.Nodes = 8
	cfg.Autoscale = &ClusterAutoscaleConfig{MinNodes: 2, MaxNodes: 6}
	c := NewCluster(tr, fastPollux(22), cfg)
	nextSched := 0.0
	nextAgent := 0.0
	for c.now = 0; c.now < 2*3600; c.now += cfg.Tick {
		c.submitArrivals()
		if c.now >= nextAgent {
			c.agentTick()
			nextAgent += 30
		}
		if c.now >= nextSched {
			c.autoscaleTick()
			c.scheduleTick()
			nextSched += 60
			total := c.activeNodes + c.provisioning
			if total < 2 || total > 6 {
				t.Fatalf("t=%v cluster size %d outside [2, 6]", c.now, total)
			}
			// Allocations must fit the active capacity.
			for _, j := range c.active() {
				for n := c.activeNodes; n < len(j.alloc); n++ {
					if j.alloc[n] > 0 {
						t.Fatalf("t=%v job %d allocated on inactive node %d", c.now, j.wj.ID, n)
					}
				}
			}
		}
		c.advance(cfg.Tick)
		if c.allDone() {
			break
		}
	}
}

func TestClusterAutoscaleIgnoredForBaselines(t *testing.T) {
	tr := smallOnly(smallTrace(23, 6))
	cfg := fastCfg(23)
	cfg.Nodes = 4
	cfg.Autoscale = &ClusterAutoscaleConfig{MinNodes: 1, MaxNodes: 4}
	c := NewCluster(tr, sched.NewTiresias(), cfg)
	c.now = tr.Duration
	c.submitArrivals()
	c.autoscaleTick() // must be a no-op for non-Pollux policies
	if c.activeNodes != 1 {
		t.Errorf("baseline changed cluster size to %d", c.activeNodes)
	}
}

func TestPolluxDesiredClusterNodesGrowsWithLoad(t *testing.T) {
	// More jobs should justify a larger cluster at the same utility band.
	mkView := func(jobs int) *sched.ClusterView {
		rng := rand.New(rand.NewSource(5))
		tr := workload.Generate(rng, workload.Options{Jobs: jobs, Hours: 0.1})
		v := &sched.ClusterView{Capacity: []int{4, 4, 4, 4, 4, 4, 4, 4}}
		for i, j := range tr.Jobs {
			spec := specFor(j.Model)
			v.Jobs = append(v.Jobs, sched.JobView{
				ID:     i,
				Model:  spec.GoodputModel(0.5),
				GPUCap: 32,
			})
		}
		return v
	}
	p := sched.NewPollux(sched.PolluxOptions{Population: 20, Generations: 10}, 9)
	small := p.DesiredClusterNodes(mkView(2), 1, 8)
	large := p.DesiredClusterNodes(mkView(12), 1, 8)
	if large < small {
		t.Errorf("desired nodes shrank with more jobs: %d -> %d", small, large)
	}
	if small < 1 || large > 8 {
		t.Errorf("bounds violated: %d, %d", small, large)
	}
}

// TestSharedAutoscaleConfigIsNotWritten: one ClusterAutoscaleConfig may
// configure clusters of several sizes, and RunSeedsFull hands one to
// Parallel goroutines at once, so resolving its bounds against a cluster
// must not write through the caller's pointer. Not skipped under -short:
// the race job is what sees the concurrent write.
func TestSharedAutoscaleConfigIsNotWritten(t *testing.T) {
	as := &ClusterAutoscaleConfig{MinNodes: 2}
	for _, nodes := range []int{8, 16} {
		cfg := fastCfg(24)
		cfg.Nodes = nodes
		cfg.Autoscale = as
		c := NewCluster(workload.Trace{}, fastPollux(24), cfg)
		if got := c.cfg.Autoscale.MaxNodes; got != nodes {
			t.Errorf("%d-node cluster may grow to %d nodes, want %d", nodes, got, nodes)
		}
	}

	cfg := fastCfg(24)
	cfg.Autoscale = as
	cfg.Parallel = 2
	gen := func(rng *rand.Rand) workload.Trace {
		return smallOnly(workload.Generate(rng, workload.Options{Jobs: 4, Hours: 0.1}))
	}
	for i, res := range RunSeedsFull([]int64{24, 25}, gen, func(seed int64) sched.Policy { return fastPollux(seed) }, cfg) {
		if res.Summary.Completed != len(res.Records) {
			t.Errorf("seed %d: completed %d of %d jobs", 24+i, res.Summary.Completed, len(res.Records))
		}
	}

	if *as != (ClusterAutoscaleConfig{MinNodes: 2}) {
		t.Errorf("caller's config was written: %+v", *as)
	}
}
