package agent

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
)

// feedSnap profiles a deterministic batch of observations into an agent.
func feedSnap(a *Agent, base float64) {
	for k := 1; k <= 4; k++ {
		for rep := 0; rep < 3; rep++ {
			nodes := (k + 1) / 2
			a.RecordSample(core.Placement{GPUs: k, Nodes: nodes}, 128*k, base/float64(k)+0.01*float64(rep))
		}
	}
	a.SetPhi(20 + 2*base)
}

// TestAgentSnapshotRoundTrip: an agent restored from a JSON-serialized
// snapshot must report the same model, refit at the same cadence, and
// tune the same batches as the original.
func TestAgentSnapshotRoundTrip(t *testing.T) {
	a := New(128, 0.1, 256, 0)
	feedSnap(a, 0.5)
	a.Refit()
	a.TuneBatch(core.Placement{GPUs: 2, Nodes: 1})

	raw, err := json.Marshal(a.Snapshot())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	b, err := FromSnapshot(&snap)
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}

	// Same further observations must produce identical fits and tunes.
	feedSnap(a, 0.45)
	feedSnap(b, 0.45)
	a.Refit()
	b.Refit()
	if !reflect.DeepEqual(a.Report(), b.Report()) {
		t.Fatalf("restored agent reports diverged:\n%+v\nvs\n%+v", a.Report(), b.Report())
	}
	ba, lra := a.TuneBatch(core.Placement{GPUs: 4, Nodes: 2})
	bb, lrb := b.TuneBatch(core.Placement{GPUs: 4, Nodes: 2})
	if ba != bb || !reflect.DeepEqual(lra, lrb) {
		t.Fatalf("restored agent tunes diverged: (%d, %v) vs (%d, %v)", ba, lra, bb, lrb)
	}
	if a.GPUCap() != b.GPUCap() || len(a.profile) != len(b.profile) {
		t.Fatalf("exploration state diverged: cap %d vs %d, configs %d vs %d",
			a.GPUCap(), b.GPUCap(), len(a.profile), len(b.profile))
	}
}

// TestAgentSnapshotRejectsCorruptState: invalid snapshots fail loudly.
func TestAgentSnapshotRejectsCorruptState(t *testing.T) {
	a := New(64, 0.1, 128, 0)
	feedSnap(a, 0.3)
	s := a.Snapshot()

	bad := *s
	bad.M0 = 0
	if _, err := FromSnapshot(&bad); err == nil {
		t.Fatal("snapshot with m0=0 accepted, want loud error")
	}

	bad2 := *s
	bad2.Profile = append(append([]ProfilePoint(nil), s.Profile...), s.Profile[0])
	if _, err := FromSnapshot(&bad2); err == nil {
		t.Fatal("snapshot with duplicate profile configuration accepted, want loud error")
	}
}
