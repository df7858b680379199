// Live cluster: real agents, a real scheduler service, a real socket.
//
// Unlike the trace-driven simulator, this example runs the Sec. 4.3
// architecture as live components: an in-memory cluster state (standing in
// for Kubernetes), a PolluxSched control loop exposed over net/rpc, and
// one goroutine per training job whose PolluxAgent profiles its own
// iteration times, fits its goodput model, tunes its batch size, and
// reports over the socket. Training time is wall-clock compressed so the
// whole run takes a few seconds.
//
// Run with: go run ./examples/live-cluster
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/eventsim"
	"repro/internal/metrics"
	"repro/internal/models"
	"repro/internal/sched"
)

func main() {
	// 4 nodes x 4 GPUs.
	svc := cluster.NewService(cluster.NewState([]int{4, 4, 4, 4}))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	go cluster.Serve(svc, ln)
	fmt.Printf("PolluxSched listening on %s (4 nodes x 4 GPUs)\n\n", ln.Addr())

	// Scheduler control loop: one GA pass per sim.SchedInterval, paced by
	// the same wall-clock compression as the trainers (the shared
	// eventsim kernel under a Wall clock, exactly like pollux-sched).
	stop := make(chan struct{})
	policy := sched.NewPollux(sched.PolluxOptions{Population: 20, Generations: 10}, 1)
	go svc.RunRounds(policy, &eventsim.Wall{Compression: 150}, 0, stop,
		func(now float64, n int, err error) {
			if err != nil {
				log.Println("schedule:", err)
			}
		})
	defer close(stop)

	// Three jobs of different scales, shrunk to run in seconds.
	jobs := []struct {
		name   string
		model  string
		epochs float64
	}{
		{"cifar-a", "resnet18", 40},
		{"cifar-b", "resnet18", 25},
		{"recsys", "neumf", 8},
	}

	var wg sync.WaitGroup
	results := make([]string, len(jobs))
	trainers := make([]*cluster.Trainer, len(jobs))
	for i, j := range jobs {
		spec := *models.ByName(j.model)
		spec.Epochs = j.epochs
		tr := &cluster.Trainer{
			Job: j.name, Spec: &spec,
			Compression: 150, Seed: int64(i + 1),
		}
		trainers[i] = tr
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			simSecs, err := tr.Run("tcp", ln.Addr().String(), 0)
			if err != nil {
				results[i] = fmt.Sprintf("%s: error: %v", name, err)
				return
			}
			results[i] = fmt.Sprintf("%s finished in %s simulated", name, metrics.Hours(simSecs))
		}(i, j.name)
	}

	// Progress monitor.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	ticker := time.NewTicker(400 * time.Millisecond)
	defer ticker.Stop()
	fmt.Println("progress (job: fraction done, batch size):")
monitor:
	for {
		select {
		case <-done:
			break monitor
		case <-ticker.C:
			line := "  "
			for i, j := range jobs {
				line += fmt.Sprintf("%s %3.0f%% m=%-5d  ", j.name, 100*trainers[i].Progress(), trainers[i].Batch())
			}
			fmt.Printf("%s gpus/node=%v\n", line, svc.Status().Usage)
		}
	}

	fmt.Println()
	for _, r := range results {
		fmt.Println(r)
	}
}
