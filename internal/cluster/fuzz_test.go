package cluster

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sched"
)

// FuzzRestoreSnapshot feeds RestoreSnapshot what a checkpoint file can
// hold once its envelope has been verified: any JSON body that decodes
// into a ServiceSnapshot. Restoring never panics. A body it accepts left
// a service that snapshots back to a restorable state and that a
// scheduling round keeps within capacity. The seed corpus under
// testdata/fuzz runs on every plain `go test`.
func FuzzRestoreSnapshot(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var snap ServiceSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return
		}
		// The service takes the snapshot's own shape when that is a
		// cluster a test can afford, so the shape check passes and the
		// rows are what decides.
		capacity := []int{4, 4}
		if n := len(snap.Capacity); n > 0 && n <= 16 {
			capacity = make([]int, 0, n)
			for _, c := range snap.Capacity {
				capacity = append(capacity, min(max(c, 0), 64))
			}
		}
		svc := NewService(NewState(capacity))
		if svc.RestoreSnapshot(&snap) != nil {
			if st := svc.Status(); st.Jobs != 0 || st.GPUsUsed != 0 {
				t.Fatalf("refused restore left %+v behind", st)
			}
			return
		}

		saved := svc.Snapshot()
		again := NewService(NewState(capacity))
		if err := again.RestoreSnapshot(saved); err != nil {
			t.Fatalf("snapshot of a restored service does not restore: %v", err)
		}
		if got := again.Snapshot(); !reflect.DeepEqual(got, saved) {
			t.Fatalf("snapshot changed over a round trip:\n%+v\nto\n%+v", saved, got)
		}

		// The round may refuse the policy's result; it may not oversubscribe.
		svc.ScheduleOnce(sched.NewTiresias(), 0) //nolint:errcheck
		st := svc.Status()
		for n, u := range st.Usage {
			if u < 0 || u > capacity[n] {
				t.Fatalf("node %d holds %d GPUs of %d after a round", n, u, capacity[n])
			}
		}
		if st.Running+st.Pending+st.Done != st.Jobs {
			t.Fatalf("status does not add up after a round: %+v", st)
		}
	})
}
