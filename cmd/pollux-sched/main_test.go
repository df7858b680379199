package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/models"
	"repro/internal/sched"
)

// daemon builds a 2x4 service and policy the way main does.
func daemon() (*cluster.Service, *sched.Pollux) {
	return cluster.NewService(cluster.NewState([]int{4, 4})),
		sched.NewPollux(sched.PolluxOptions{Population: 10, Generations: 5}, 1)
}

// TestRestoreAcceptsVersion1AndWritesVersion2: a version-1 state file,
// whose service snapshot repeats every row in a second list, restores to
// the daemon that wrote it: the next round on both commits the same
// rows at the same generations. What this binary writes carries
// version 2, which a version-1 reader refuses.
func TestRestoreAcceptsVersion1AndWritesVersion2(t *testing.T) {
	svc, pollux := daemon()
	spec := models.ByName("resnet18")
	names := []string{"job-0", "job-1", "job-2"}
	for i, name := range names {
		r := cluster.Report{
			Job: name, Phi: spec.Phi(0.2 * float64(i+1)), M0: spec.M0,
			MaxBatchPerGPU: spec.MaxBatchPerGPU, MaxBatchGlobal: spec.MaxBatchGlobal, GPUCap: 8,
		}
		copy(r.Params[:], spec.Truth.Vector())
		if err := svc.SubmitReport(r, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.ScheduleOnce(pollux, 0); err != nil {
		t.Fatal(err)
	}

	// The version-1 body: today's, plus the list of bound rows by job.
	type placedJob struct {
		Job string
		Row []int
	}
	type v1Service struct {
		*cluster.ServiceSnapshot
		Placed []placedJob
	}
	snap := svc.Snapshot()
	v1 := v1Service{ServiceSnapshot: snap}
	for _, js := range snap.Jobs {
		v1.Placed = append(v1.Placed, placedJob{Job: js.Report.Job, Row: js.Row})
	}
	body := struct {
		Nodes, GPUs int
		NextSched   float64
		Service     v1Service
		Policy      *sched.PolluxSnapshot
	}{2, 4, 60, v1, pollux.Snapshot()}
	path := filepath.Join(t.TempDir(), "sched.ckpt")
	if err := checkpoint.Write(path, checkpointKind, 1, &body); err != nil {
		t.Fatal(err)
	}

	restored, restoredPollux := daemon()
	start, err := restoreCheckpoint(path, 2, 4, restored, restoredPollux)
	if err != nil {
		t.Fatalf("version-1 file refused: %v", err)
	}
	if start != 60 {
		t.Errorf("next round due at %v, want 60", start)
	}
	if _, err := svc.ScheduleOnce(pollux, start); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.ScheduleOnce(restoredPollux, start); err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, name := range names {
		var want, got cluster.Allocation
		svc.GetAllocation(name, &want)
		restored.GetAllocation(name, &got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: restored daemon allocates %+v, original %+v", name, got, want)
		}
		held += sched.PlacementOf(got.Row).GPUs
	}
	if held == 0 {
		t.Error("no job holds GPUs; the comparison is empty")
	}

	if _, err := restoreCheckpoint(path, 4, 4, restored, restoredPollux); err == nil || !strings.Contains(err.Error(), "2x4 cluster") {
		t.Errorf("restore into another shape: got %v, want a shape error", err)
	}

	current := filepath.Join(t.TempDir(), "sched.ckpt")
	dc := daemonCheckpoint{Nodes: 2, GPUs: 4, NextSched: 120, Service: svc.Snapshot(), Policy: pollux.Snapshot()}
	if err := checkpoint.Write(current, checkpointKind, checkpointVersion, &dc); err != nil {
		t.Fatal(err)
	}
	var old daemonCheckpoint
	if _, err := checkpoint.Read(current, checkpointKind, 1, &old); err == nil || !strings.Contains(err.Error(), fmt.Sprint("version ", checkpointVersion)) {
		t.Errorf("a version-1 reader given this binary's file: got %v, want a version error", err)
	}
}
