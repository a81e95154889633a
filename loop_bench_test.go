// Loop experiments (L-series): lazy steal-driven loop splitting submits a
// cilk_for as one splittable range task instead of an eager Θ(n/grain)
// spawn tree, so wide loops should show task-creation counts that scale
// with the thieves (O(P·log(n/grain)) splits), not with n. Run with
// `go test -run '^$' -bench BenchmarkLoop .`; cmd/cilkbench's loop_steps is
// the gated loop workload.
package cilkgo_test

import (
	"testing"

	"cilkgo"
	"cilkgo/internal/hyper"
	"cilkgo/internal/pfor"
)

// reportLoopMetrics attaches the lazy-splitting economics to the benchmark
// output: steal-driven splits and chunks per operation (splits bounded by
// thief demand, chunks ≈ n/grain), and spawned tasks per op, which for a
// pure loop should be zero — the loop's pieces are range tasks, not spawns.
func reportLoopMetrics(b *testing.B, rt *cilkgo.Runtime, before cilkgo.Stats) {
	d := rt.Stats().Sub(before)
	n := float64(b.N)
	b.ReportMetric(float64(d.LoopSplits)/n, "splits/op")
	b.ReportMetric(float64(d.ChunksPeeled)/n, "chunks/op")
	b.ReportMetric(float64(d.RangeSteals)/n, "range-steals/op")
	b.ReportMetric(float64(d.Spawns)/n, "spawns/op")
}

// BenchmarkLoopWideLight is the acceptance-gate shape: a flat million-
// iteration loop with a near-empty body, where eager splitting would pay
// ~n/grain task creations per op and lazy splitting pays one range task
// plus however many splits the thieves actually force.
func BenchmarkLoopWideLight(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	const n = 1_000_000
	sink := make([]uint8, n) // disjoint per-iteration writes: race-free, near-free
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(func(c *cilkgo.Context) {
			cilkgo.For(c, 0, n, func(c *cilkgo.Context, i int) {
				sink[i] = uint8(i)
			})
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportLoopMetrics(b, rt, before)
}

// BenchmarkLoopDaxpy is the memory-bound loop shape: y ← a·x + y over a
// vector that misses cache, where contiguous chunk runs (not task overhead)
// decide throughput — lazy splitting keeps each strand on an unbroken
// ascending run.
func BenchmarkLoopDaxpy(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	const n = 1 << 20
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	before := rt.Stats()
	b.SetBytes(n * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(func(c *cilkgo.Context) {
			cilkgo.For(c, 0, n, func(c *cilkgo.Context, i int) {
				y[i] += 2.5 * x[i]
			})
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportLoopMetrics(b, rt, before)
}

// BenchmarkLoopFor2D is the nested shape: an outer lazy loop whose body is
// itself serial row work, the common dense-matrix traversal.
func BenchmarkLoopFor2D(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	const dim = 512
	grid := make([]float64, dim*dim)
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(func(c *cilkgo.Context) {
			cilkgo.For2D(c, 0, dim, 0, dim, func(c *cilkgo.Context, i, j int) {
				grid[i*dim+j] = float64(i) * float64(j)
			})
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportLoopMetrics(b, rt, before)
}

// BenchmarkLoopReduce is the map-reduce shape on the pooled reducer: the
// per-iteration cost is dominated by the strand-local view lookup (the
// last-key cache hit) and the fold order must still match the serial loop.
func BenchmarkLoopReduce(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	const n = 1 << 20
	m := hyper.FuncMonoid(func() int64 { return 0 }, func(a, x int64) int64 { return a + x })
	const want = int64(n) * (n - 1) / 2
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int64
		if err := rt.Run(func(c *cilkgo.Context) {
			got = pfor.Reduce(c, 0, n, m, func(c *cilkgo.Context, i int) int64 { return int64(i) })
		}); err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatalf("Reduce = %d, want %d", got, want)
		}
	}
	b.StopTimer()
	reportLoopMetrics(b, rt, before)
}
