package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/sched"
)

// TestRunDigestsPinned pins whole fixed-seed replays, the way the test of
// the same name in internal/sim pins the simulator's engines: every
// record's submit and finish time plus the run's mean goodput and
// throughput, hashed bit for bit. A trainer's step, its noisy phi
// observation and its remaining-iterations oracle feed every round, so one
// moved rng draw or one reassociated product changes a digest. Recorded at
// the commit before the trainers were put on sim.Job; valid for the
// toolchain and architecture of bench/baselines/*.json. It runs under
// -short, so the race job drives the trainer's lock through it.
func TestRunDigestsPinned(t *testing.T) {
	tr := smallTrace(3, 24)
	for _, c := range []struct {
		name   string
		policy sched.Policy
		want   string
	}{
		{"tiresias", sched.NewTiresias(), "155f8a801f5a4714"},
		{"pollux", sched.NewPollux(sched.PolluxOptions{Population: 15, Generations: 8}, 3), "900725e8fee6d4cc"},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := Replay(tr, c.policy, smallReplayCfg(3))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			put := func(xs ...float64) {
				var b [8]byte
				for _, x := range xs {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					h.Write(b[:])
				}
			}
			for _, r := range res.Records {
				put(r.Submit, r.Finish)
			}
			put(res.AvgGoodput, res.AvgThroughput)
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != c.want {
				t.Errorf("digest %s, pinned %s: a fixed-seed replay moved (%d jobs, %d completed)",
					got, c.want, len(tr.Jobs), res.Summary.Completed)
			}
		})
	}
}
