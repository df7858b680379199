package sim

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/testutil"
)

// TestSimCheckpointRoundTripBitIdentical is the sim-engine half of the
// checkpoint acceptance criterion: serializing the Pollux scheduler state
// to JSON and restoring it mid-run — through the OnRound hook, between
// two scheduling rounds, exactly where the service checkpoints — must
// leave the rest of the simulation bit-identical to an uninterrupted run,
// under incremental + rack-hierarchical rounds at any fitness worker
// count.
func TestSimCheckpointRoundTripBitIdentical(t *testing.T) {
	tr := smallOnly(smallTrace(5, 10))
	if len(tr.Jobs) < 4 {
		t.Skip("trace too small after filtering")
	}
	opts := sched.PolluxOptions{
		Population: 20, Generations: 10,
		Incremental: true, FullEvery: 3, RackSize: 2,
	}
	for _, workers := range []int{1, 4} {
		t.Run("event/workers="+string(rune('0'+workers)), func(t *testing.T) {
			testutil.SetProcs(t, workers)
			cfg := fastCfg(2)
			plain := NewCluster(tr, sched.NewPollux(opts, 2), cfg).Run()

			p := sched.NewPollux(opts, 2)
			rounds := 0
			cfgCk := cfg
			cfgCk.OnRound = func(now float64) {
				rounds++
				if rounds%5 != 0 {
					return
				}
				// Round-trip through real JSON bytes so canonical float
				// and uint64 encoding is part of what is pinned.
				raw, err := json.Marshal(p.Snapshot())
				if err != nil {
					t.Fatalf("marshal at t=%.0f: %v", now, err)
				}
				var snap sched.PolluxSnapshot
				if err := json.Unmarshal(raw, &snap); err != nil {
					t.Fatalf("unmarshal at t=%.0f: %v", now, err)
				}
				if err := p.Restore(&snap); err != nil {
					t.Fatalf("restore at t=%.0f: %v", now, err)
				}
			}
			ck := NewCluster(tr, p, cfgCk).Run()

			if rounds == 0 {
				t.Fatal("OnRound hook never fired")
			}
			if !reflect.DeepEqual(plain, ck) {
				t.Fatalf("save/restore every 5th round changed the run at %d workers:\n%+v\nvs\n%+v",
					workers, plain.Summary, ck.Summary)
			}
		})
	}
}
