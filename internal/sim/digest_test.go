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
// submit and finish time, then the run's goodput and efficiency, bit for
// bit.
func runDigest(res Result) string {
	h := newFloatHash()
	for _, r := range res.Records {
		h.put(r.Submit, r.Finish)
	}
	h.put(res.AvgGoodput, res.Summary.AvgEfficiency)
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

// TestRunDigestsPinned pins whole fixed-seed trajectories of the cluster
// simulator and of single-job autoscaling: a job's ground truth (true rate, efficiency, the agent's
// noisy observations) feeds every scheduling decision, so one moved rng
// draw or one reassociated product anywhere in it changes a finish time in
// the last digits and therefore a digest. The exhibits carry a 5% band and
// would not notice; this does. The autoscale digests were recorded at the
// commit before the engines were put on the one simulated-job type
// (sim.Job); the cluster digests were re-recorded, on unchanged simulator
// code, when runDigest stopped hashing paid node-seconds. All hold for the
// toolchain and architecture the checked-in baselines are generated on,
// like bench/baselines/*.json. It runs under -short, so the race job
// covers it.
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
	autoscale := func(goodput bool) func() string {
		return func() string {
			var scaler sched.Autoscaler = sched.ThroughputAutoscaler{}
			if goodput {
				scaler = sched.GoodputAutoscaler{}
			}
			return autoscaleDigest(RunAutoscale(scaledDownImagenet(), scaler, autoscaleCfg(goodput)))
		}
	}
	for _, c := range []struct {
		name string
		run  func() string
		want string
	}{
		{"event/pollux", cluster(small, fastPollux(1), nil), "606097720394973c"},
		{"event/optimus", cluster(small, sched.NewOptimus(4), nil), "8bdbf45542dcddb5"},
		{"event/tiresias", cluster(small, sched.NewTiresias(), nil), "e5017a400d7e9082"},
		// Interference avoidance off, or no two distributed jobs ever share a
		// node and the slowdown is never charged.
		{"event/interference", cluster(small, sched.NewPollux(sched.PolluxOptions{
			Population: 20, Generations: 10, DisableInterferenceAvoidance: true,
		}, 1), func(c *Config) {
			c.InterferenceSlowdown = 0.5
		}), "d77c32b63602b5f5"},
		// The front end rejects over quota and reorders most rounds' views,
		// swapping slices of its own into the view Round refills and reuses.
		// Pollux, which keeps rows and per-position state from one round to
		// the next, is the policy that would notice a view read back; its
		// digest was recorded at the commit before the view was reused.
		{"event/frontend", cluster(digestTenantTrace(11), sched.NewTiresias(), digestFrontEnd), "e67a3c1885e90cc4"},
		{"event/frontend-pollux", cluster(digestTenantTrace(11), fastPollux(1), digestFrontEnd), "2c6af35db6443759"},
		{"autoscale/event/goodput", autoscale(true), "e16486068a6e421e"},
		{"autoscale/event/throughput", autoscale(false), "213273214f48175d"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(); got != c.want {
				t.Errorf("digest %s, pinned %s: a fixed-seed trajectory moved", got, c.want)
			}
		})
	}
}
