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
		svc.GetAllocation(cluster.AllocQuery{Job: name, Have: -1}, &want)
		restored.GetAllocation(cluster.AllocQuery{Job: name, Have: -1}, &got)
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

// TestRestoreRefusesNullSnapshots: a well-formed, checksummed state file
// whose service or policy snapshot is null is refused with an error, and
// neither restore runs on it.
func TestRestoreRefusesNullSnapshots(t *testing.T) {
	svc, pollux := daemon()
	for _, c := range []struct {
		name string
		dc   daemonCheckpoint
	}{
		{"both", daemonCheckpoint{Nodes: 2, GPUs: 4, NextSched: 60}},
		{"service", daemonCheckpoint{Nodes: 2, GPUs: 4, NextSched: 60, Policy: pollux.Snapshot()}},
		{"policy", daemonCheckpoint{Nodes: 2, GPUs: 4, NextSched: 60, Service: svc.Snapshot()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sched.ckpt")
			if err := checkpoint.Write(path, checkpointKind, checkpointVersion, &c.dc); err != nil {
				t.Fatal(err)
			}
			restored, restoredPollux := daemon()
			if _, err := restoreCheckpoint(path, 2, 4, restored, restoredPollux); err == nil {
				t.Error("a state file with a null snapshot was restored")
			}
		})
	}
}

// TestCheckFlagsNamesTheFlag: a cluster shape with no usable GPUs or with
// more GPUs a node than a GA cell holds (ga.MaxCapacity), a pace that is
// not positive and an incomplete checkpoint setting are each refused with
// an error that names the flag, before main sizes anything by them (-nodes
// -1 used to panic in makeslice); the defaults pass.
func TestCheckFlagsNamesTheFlag(t *testing.T) {
	type flags struct {
		nodes, gpus  int
		compression  float64
		ckptPath     string
		ckptInterval float64
		restore      bool
	}
	defaults := flags{nodes: 4, gpus: 4, compression: 300, ckptInterval: 600}
	check := func(f flags) error {
		return checkFlags(f.nodes, f.gpus, f.compression, f.ckptPath, f.ckptInterval, f.restore)
	}
	if err := check(defaults); err != nil {
		t.Fatalf("the default flags are refused: %v", err)
	}
	withCkpt := defaults
	withCkpt.ckptPath, withCkpt.restore = "sched.ckpt", true
	if err := check(withCkpt); err != nil {
		t.Fatalf("-checkpoint with -restore is refused: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*flags)
		want string
	}{
		{"nodes -1", func(f *flags) { f.nodes = -1 }, "-nodes"},
		{"nodes 0", func(f *flags) { f.nodes = 0 }, "-nodes"},
		{"gpus -2", func(f *flags) { f.gpus = -2 }, "-gpus"},
		{"gpus 0", func(f *flags) { f.gpus = 0 }, "-gpus"},
		{"gpus above a GA cell", func(f *flags) { f.gpus = 65536 }, "-gpus"},
		{"compression 0", func(f *flags) { f.compression = 0 }, "-compression"},
		{"restore without checkpoint", func(f *flags) { f.restore = true }, "-restore"},
		{"checkpoint interval 0", func(f *flags) { f.ckptPath, f.ckptInterval = "sched.ckpt", 0 }, "-checkpoint-interval"},
	} {
		f := defaults
		c.edit(&f)
		if err := check(f); err == nil || !strings.HasPrefix(err.Error(), c.want+" ") {
			t.Errorf("%s: got %v, want an error naming %s", c.name, err, c.want)
		}
	}
}
