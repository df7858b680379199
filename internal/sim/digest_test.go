package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"repro/internal/admit"
	"repro/internal/sched"
	"repro/internal/workload"
)

// floatHash is a SHA-256 over float64 bit patterns.
type floatHash struct{ h hash.Hash }

func newFloatHash() floatHash { return floatHash{sha256.New()} }

func (f floatHash) put(xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		f.h.Write(b[:])
	}
}

func (f floatHash) String() string { return hex.EncodeToString(f.h.Sum(nil))[:16] }

// runDigest hashes what a fixed-seed run is judged by: every record's
// submit and finish time, then the run's goodput, efficiency and paid
// node-seconds, bit for bit.
func runDigest(res Result) string {
	h := newFloatHash()
	for _, r := range res.Records {
		h.put(r.Submit, r.Finish)
	}
	h.put(res.AvgGoodput, res.Summary.AvgEfficiency, res.CostNodeSeconds)
	return h.String()
}

// autoscaleDigest is runDigest for a single-job autoscaling run: the whole
// Fig. 10 time series plus completion time and cost.
func autoscaleDigest(res AutoscaleResult) string {
	h := newFloatHash()
	for _, p := range res.Points {
		h.put(p.Time, float64(p.Nodes), float64(p.Batch), p.Efficiency)
	}
	h.put(res.CompletionTime, res.CostNodeSeconds)
	return h.String()
}

// digestTenantTrace is a small multi-tenant trace of the fast models, for
// the front-end leg.
func digestTenantTrace(seed int64) workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	return smallOnly(workload.Generate(rng, workload.Options{
		Hours: 0.5,
		Tenants: []workload.TenantSpec{
			{Name: "prod", Jobs: 8, SLOHours: 2},
			{Name: "batch", Jobs: 10},
			{Name: "burst", Jobs: 6, SLOHours: 1},
		},
	}))
}

// digestFrontEnd is the front-end leg's admission and priority stage.
func digestFrontEnd(c *Config) {
	c.FrontEnd = &admit.Options{
		Admission: admit.AdmitQuota,
		Quotas:    map[string]int{"batch": 4, "burst": 2},
		Priority:  admit.PrioritySLO,
	}
}

// TestRunDigestsPinned pins whole fixed-seed trajectories of every engine
// in this package: a job's ground truth (true rate, efficiency, the agent's
// noisy observations) feeds every scheduling decision, so one moved rng
// draw or one reassociated product anywhere in it changes a finish time in
// the last digits and therefore a digest. The exhibits carry a 5% band and
// would not notice; this does. The digests were recorded at the commit
// before the engines were put on the one simulated-job type (sim.Job) and
// hold for the toolchain and architecture the checked-in baselines are
// generated on, like bench/baselines/*.json. It runs under -short, so the
// race job covers it.
func TestRunDigestsPinned(t *testing.T) {
	small := smallOnly(smallTrace(1, 24))
	cluster := func(tr workload.Trace, p sched.Policy, mod func(*Config)) func() string {
		return func() string {
			cfg := fastCfg(1)
			if mod != nil {
				mod(&cfg)
			}
			return runDigest(NewCluster(tr, p, cfg).Run())
		}
	}
	autoscale := func(goodput bool, engine string) func() string {
		return func() string {
			scaler := sched.Autoscaler(sched.NewThroughputAutoscaler(1, 16, 0.9))
			if goodput {
				scaler = sched.NewGoodputAutoscaler(1, 16)
			}
			cfg := autoscaleCfg(goodput)
			cfg.Engine = engine
			return autoscaleDigest(RunAutoscale(scaledDownImagenet(), scaler, cfg))
		}
	}
	for _, c := range []struct {
		name string
		run  func() string
		want string
	}{
		{"event/pollux", cluster(small, fastPollux(1), nil), "8c47cd35d8bb5f85"},
		{"event/optimus", cluster(small, sched.NewOptimus(4), nil), "a290dd01a2c251c5"},
		{"event/tiresias", cluster(small, sched.NewTiresias(), nil), "1e36d407d9b99aca"},
		// Interference avoidance off, or no two distributed jobs ever share a
		// node and the slowdown is never charged.
		{"event/interference", cluster(small, sched.NewPollux(sched.PolluxOptions{
			Population: 20, Generations: 10, DisableInterferenceAvoidance: true,
		}, 1), func(c *Config) {
			c.InterferenceSlowdown = 0.5
		}), "da25bc787eb87b89"},
		// The front end rejects over quota and reorders most rounds' views,
		// swapping slices of its own into the view Round refills and reuses.
		// Pollux, which keeps rows and per-position state from one round to
		// the next, is the policy that would notice a view read back; its
		// digest was recorded at the commit before the view was reused.
		{"event/frontend", cluster(digestTenantTrace(11), sched.NewTiresias(), digestFrontEnd), "f823393ae858377c"},
		{"event/frontend-pollux", cluster(digestTenantTrace(11), fastPollux(1), digestFrontEnd), "d8e219cf7a60af85"},
		{"event/autoscale", cluster(small, fastPollux(1), func(c *Config) {
			c.Nodes = 8
			c.Autoscale = &ClusterAutoscaleConfig{MinNodes: 1, MaxNodes: 8}
		}), "f04dd20869174875"},
		{"tick/pollux", cluster(small, fastPollux(1), func(c *Config) {
			c.Engine = EngineTick
		}), "1f5f6284fc50b71d"},
		{"autoscale/event/goodput", autoscale(true, EngineEvent), "e16486068a6e421e"},
		{"autoscale/event/throughput", autoscale(false, EngineEvent), "213273214f48175d"},
		{"autoscale/tick/goodput", autoscale(true, EngineTick), "6f775a8cae939514"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(); got != c.want {
				t.Errorf("digest %s, pinned %s: a fixed-seed trajectory moved", got, c.want)
			}
		})
	}
}
