// Command pollux-sched runs the PolluxSched service as a standalone
// process: it listens for PolluxAgent reports over net/rpc, and
// periodically optimizes cluster-wide allocations with the genetic
// algorithm (Sec. 4.2), applying them to the in-memory cluster state that
// stands in for Kubernetes (Sec. 4.3).
//
// Usage:
//
//	pollux-sched [-listen 127.0.0.1:7077] [-nodes 4] [-gpus 4]
//	             [-compression 300] [-population 50] [-generations 30]
//	             [-seed 1] [-status 127.0.0.1:7078]
//	             [-checkpoint sched.ckpt] [-checkpoint-interval 600]
//	             [-restore]
//
// Scheduling rounds fire every sim.SchedInterval (60) simulated seconds
// on the shared eventsim kernel, paced by a wall clock under -compression
// (simulated seconds per wall-clock second; 300 means five rounds per
// wall second). Use the same compression for the paired `pollux-agent`
// processes — both default to 300 — so scheduler and trainers advance
// simulated time at the same rate.
//
// -checkpoint names a state file the daemon atomically rewrites every
// -checkpoint-interval simulated seconds (after the round that crosses
// the mark): the full service state — job registry, latest reports, the
// placement ledger's rows and generations, admission counters — plus the
// Pollux policy's caches, GA seeds, and RNG position. -restore loads that
// file on startup and resumes the round cadence where the saved daemon
// stopped; agents reconnect and keep reporting as if the restart never
// happened. A checkpoint from a different cluster shape, a corrupt file,
// or a newer format version fails startup loudly.
//
// -status serves read-only observability on a second address: GET
// /status returns a JSON snapshot (rounds, queue depths, per-round
// scheduling latency, the Pollux round-work stats, per-tenant admission
// counters) and GET /metrics the same in Prometheus text format.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/eventsim"
	"repro/internal/ga"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/status"
)

// checkpointKind tags the daemon's checkpoint files; checkpointVersion is
// the current format. Version 2 stores each job's allocation row once; a
// version-1 file, which repeats the rows in a list version 2 dropped,
// still restores.
const (
	checkpointKind    = "sched-service"
	checkpointVersion = 2
)

// daemonCheckpoint is the pollux-sched state file body: the cluster shape
// it was taken under (validated on restore), the time the next scheduling
// round was due, and the service and policy snapshots.
type daemonCheckpoint struct {
	Nodes     int
	GPUs      int
	NextSched float64
	Service   *cluster.ServiceSnapshot
	Policy    *sched.PolluxSnapshot
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7077", "address to serve the scheduler RPC on")
	nodes := flag.Int("nodes", 4, "cluster nodes")
	gpus := flag.Int("gpus", 4, "GPUs per node")
	compression := flag.Float64("compression", 300,
		"simulated seconds per wall-clock second (match the pollux-agent -compression, default 300)")
	population := flag.Int("population", 50, "GA population size")
	generations := flag.Int("generations", 30, "GA generations per interval")
	seed := flag.Int64("seed", 1, "GA random seed")
	statusAddr := flag.String("status", "", "serve /status (JSON) and /metrics (Prometheus text) on this address")
	ckptPath := flag.String("checkpoint", "", "write scheduler state to this file for crash recovery")
	ckptInterval := flag.Float64("checkpoint-interval", 600,
		"simulated seconds between checkpoint writes (with -checkpoint)")
	restore := flag.Bool("restore", false, "restore state from the -checkpoint file before serving")
	flag.Parse()
	if err := checkFlags(*nodes, *gpus, *compression, *ckptPath, *ckptInterval, *restore); err != nil {
		fmt.Fprintf(os.Stderr, "pollux-sched: %v\n", err)
		os.Exit(2)
	}

	capacity := make([]int, *nodes)
	for i := range capacity {
		capacity[i] = *gpus
	}
	svc := cluster.NewService(cluster.NewState(capacity))

	pollux := sched.NewPollux(sched.PolluxOptions{
		Population: *population, Generations: *generations,
	}, *seed)

	start := 0.0
	if *restore {
		var err error
		if start, err = restoreCheckpoint(*ckptPath, *nodes, *gpus, svc, pollux); err != nil {
			log.Fatalf("pollux-sched: restore: %v", err)
		}
		log.Printf("pollux-sched: restored from %s, resuming at t=%.0fs", *ckptPath, start)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	log.Printf("pollux-sched: serving on %s, cluster %d nodes x %d GPUs", ln.Addr(), *nodes, *gpus)

	go func() {
		if err := cluster.Serve(svc, ln); err != nil {
			log.Printf("rpc server stopped: %v", err)
		}
	}()

	policy := status.Timed(pollux)
	var reg *status.Registry
	if *statusAddr != "" {
		reg = status.New(policy.Name())
		reg.SetSource(svc.Status)
		sl, err := net.Listen("tcp", *statusAddr)
		if err != nil {
			log.Fatalf("pollux-sched: status listener: %v", err)
		}
		defer sl.Close()
		log.Printf("pollux-sched: status endpoint on http://%s/status", sl.Addr())
		go func() {
			if err := http.Serve(sl, reg.Handler()); err != nil {
				log.Printf("status server stopped: %v", err)
			}
		}()
	}

	nextCkpt := start + *ckptInterval
	svc.RunRounds(policy, &eventsim.Wall{Compression: *compression}, start, nil,
		func(now float64, n int, err error) {
			if reg != nil {
				reg.ObserveRound(now, n, policy.LastLatencySeconds(), pollux.LastRoundStats(), err)
			}
			if err != nil {
				log.Printf("schedule: %v", err)
				return
			}
			if *ckptPath != "" && now >= nextCkpt {
				nextCkpt = now + *ckptInterval
				dc := daemonCheckpoint{
					Nodes: *nodes, GPUs: *gpus,
					NextSched: now + sim.SchedInterval,
					Service:   svc.Snapshot(),
					Policy:    pollux.Snapshot(),
				}
				if err := checkpoint.Write(*ckptPath, checkpointKind, checkpointVersion, &dc); err != nil {
					log.Printf("checkpoint: %v", err)
				} else {
					log.Printf("t=%.0fs checkpointed to %s", now, *ckptPath)
				}
			}
			if n == 0 {
				return
			}
			st := svc.Status()
			log.Printf("t=%.0fs scheduled %d jobs; GPUs in use %d/%d %v", now, n, st.GPUsUsed, st.GPUsTotal, st.Usage)
		})
}

// checkFlags refuses flag values the daemon cannot serve with, naming the
// flag: a cluster without nodes or GPUs, nodes with more GPUs than the
// scheduler's GA can hold (ga.MaxCapacity), a pace that is not positive,
// and checkpointing without a file or an interval.
func checkFlags(nodes, gpus int, compression float64, ckptPath string, ckptInterval float64, restore bool) error {
	switch {
	case nodes <= 0:
		return fmt.Errorf("-nodes must be positive, got %d", nodes)
	case gpus <= 0:
		return fmt.Errorf("-gpus must be positive, got %d", gpus)
	case gpus > ga.MaxCapacity:
		return fmt.Errorf("-gpus must be at most %d, got %d", ga.MaxCapacity, gpus)
	case compression <= 0:
		return errors.New("-compression must be positive")
	case restore && ckptPath == "":
		return errors.New("-restore needs -checkpoint to name the state file")
	case ckptPath != "" && ckptInterval <= 0:
		return errors.New("-checkpoint-interval must be positive")
	}
	return nil
}

// restoreCheckpoint loads the state file, of the current format version
// or an older one, into a fresh service and policy for a nodes x gpus
// cluster and returns the time the next scheduling round was due.
func restoreCheckpoint(path string, nodes, gpus int, svc *cluster.Service, pollux *sched.Pollux) (float64, error) {
	var dc daemonCheckpoint
	if _, err := checkpoint.Read(path, checkpointKind, checkpointVersion, &dc); err != nil {
		return 0, err
	}
	if dc.Nodes != nodes || dc.GPUs != gpus {
		return 0, fmt.Errorf("checkpoint is for a %dx%d cluster, this daemon runs %dx%d", dc.Nodes, dc.GPUs, nodes, gpus)
	}
	if dc.Service == nil || dc.Policy == nil {
		return 0, fmt.Errorf("checkpoint has no service or no policy snapshot")
	}
	if err := svc.RestoreSnapshot(dc.Service); err != nil {
		return 0, err
	}
	if err := pollux.Restore(dc.Policy); err != nil {
		return 0, err
	}
	return dc.NextSched, nil
}
