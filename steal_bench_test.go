// Steal-path experiments (S-series): the batching steal protocol moves up
// to half a victim's deque in one CAS and the adaptive hunt re-probes the
// last successful victim first, so steal-heavy schedules should show fewer
// steal attempts per executed task than steal-one with random victims.
// Run with `go test -run '^$' -bench BenchmarkSteal .`; cmd/cilkbench is the
// gated benchmark.
package cilkgo_test

import (
	"testing"
	"time"

	"cilkgo"
	"cilkgo/internal/workloads"
)

// reportStealMetrics attaches the scheduler's steal economics to the
// benchmark output: attempts per executed task (the hunt's efficiency —
// lower is better), and the fraction of successful steals that moved a
// batch.
func reportStealMetrics(b *testing.B, rt *cilkgo.Runtime, before cilkgo.Stats) {
	d := rt.Stats().Sub(before)
	if d.TasksRun > 0 {
		b.ReportMetric(float64(d.StealAttempts)/float64(d.TasksRun), "attempts/task")
	}
	if d.Steals > 0 {
		b.ReportMetric(float64(d.StealBatches)/float64(d.Steals), "batches/steal")
	}
}

// BenchmarkStealFib is the steal-heavy recursive workload: fib(22) on four
// workers spawns ~28k fine-grained tasks whose distribution is pure work
// stealing — no injection after the root, no parallel-for chunking.
func BenchmarkStealFib(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int64
		if err := rt.Run(func(c *cilkgo.Context) { got = workloads.Fib(c, 22) }); err != nil {
			b.Fatal(err)
		}
		if got != 17711 {
			b.Fatalf("fib(22) = %d", got)
		}
	}
	b.StopTimer()
	reportStealMetrics(b, rt, before)
}

// BenchmarkStealWideFor is the wide-loop shape from the ISSUE's acceptance
// gate: a flat cilk_for over many cheap iterations leaves the spawning
// worker's deque long, which is exactly where steal-half batching should cut
// the attempts-per-task ratio — one CAS redistributes a chunk instead of
// thieves re-probing per task.
func BenchmarkStealWideFor(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	const width = 4096
	sink := make([]float64, width)
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := rt.Run(func(c *cilkgo.Context) {
			cilkgo.ForGrain(c, 0, width, 8, func(_ *cilkgo.Context, j int) {
				x := float64(j)
				for k := 0; k < 64; k++ {
					x = x*1.0000001 + 1
				}
				sink[j] = x
			})
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportStealMetrics(b, rt, before)
}

// BenchmarkStealWideSpawn is the redistribution stress: a flat 256-way
// spawn whose root then yields the processor with its deque still full, so
// hunting workers must carry the leaves. This is the shape where the
// attempts/task ratio separates steal-half from steal-one — each successful
// probe relocates a chunk instead of a single leaf. The root's yield is a
// sleep, so ns/op is not the interesting column here; attempts/task and
// batches/steal are.
func BenchmarkStealWideSpawn(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := rt.Run(func(c *cilkgo.Context) {
			for j := 0; j < 256; j++ {
				c.Spawn(func(*cilkgo.Context) {
					x := 0
					for k := 0; k < 2000; k++ {
						x += k
					}
					_ = x
				})
			}
			time.Sleep(100 * time.Microsecond)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportStealMetrics(b, rt, before)
}

// BenchmarkStealPingPong measures the spawn/sync round trip on a loaded
// runtime — the latency-sensitive shape: a single spawned child per sync, so
// every iteration is a fresh wakeup/steal opportunity rather than a long
// deque. Task and frame recycling dominates here; the allocs/op column is
// the interesting one.
func BenchmarkStealPingPong(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	b.ResetTimer()
	err := rt.Run(func(c *cilkgo.Context) {
		for i := 0; i < b.N; i++ {
			c.Spawn(func(*cilkgo.Context) {})
			c.Sync()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
