// Spawn fast-path experiments (W-series, for the work-first principle):
// Cilk's performance model charges scheduling overhead to the worker that
// spawns, betting that steals are rare — so a spawn must cost a small
// constant over a plain function call, and above all must not allocate.
// These benchmarks pin that bet: the per-worker frame freelists and the
// fused task+frame+Context allocation keep the scheduler itself at zero
// allocations per spawn (what remains in the fib shape is the user-level
// closure capture, which the API cannot elide). The exact allocation gates
// are the testing.AllocsPerRun tests in alloc_test.go; `make prof-spawn`
// profiles BenchmarkSpawnFib and `make prof-obs` its observed twin.
package cilkgo_test

import (
	"testing"

	"cilkgo"
	"cilkgo/internal/hyper"
	"cilkgo/internal/workloads"
)

// reportSpawnMetrics attaches the freelist economics to the benchmark
// output: spawns per op, and backstop refill/spill batches per op — near
// zero in steady state, when each worker's private freelist absorbs its own
// spawn/retire traffic.
func reportSpawnMetrics(b *testing.B, rt *cilkgo.Runtime, before cilkgo.Stats) {
	d := rt.Stats().Sub(before)
	n := float64(b.N)
	b.ReportMetric(float64(d.Spawns)/n, "spawns/op")
	b.ReportMetric(float64(d.PoolRefills)/n, "refills/op")
	b.ReportMetric(float64(d.PoolSpills)/n, "spills/op")
}

// BenchmarkSpawnFib is the spawn-dense canary: fib(22) creates ~28.6k
// frames per op with two-instruction bodies, so ns/op is almost pure
// scheduling overhead. The allocation gate rides on this shape — its
// allocs/op are exactly the user closure captures (two per spawn: the
// closure and the escaping result slot), with the scheduler contributing
// none.
func BenchmarkSpawnFib(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	want := workloads.SerialFib(22)
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int64
		if err := mustSubmit(b, rt, func(c *cilkgo.Context) { got = workloads.Fib(c, 22) }).Wait(); err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatal("wrong fib")
		}
	}
	b.StopTimer()
	reportSpawnMetrics(b, rt, before)
}

// BenchmarkSpawnFibObserved is BenchmarkSpawnFib on a runtime built
// WithObserver: the same spawn-dense shape with the online work/span clocks
// and per-run accounting armed, so ns/op minus BenchmarkSpawnFib's is what
// observation costs per run. `make prof-obs` profiles it.
func BenchmarkSpawnFibObserved(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4), cilkgo.WithObserver(cilkgo.NewObserver(0)))
	defer rt.Shutdown()
	want := workloads.SerialFib(22)
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int64
		if err := mustSubmit(b, rt, func(c *cilkgo.Context) { got = workloads.Fib(c, 22) }).Wait(); err != nil {
			b.Fatal(err)
		}
		if got != want {
			b.Fatal("wrong fib")
		}
	}
	b.StopTimer()
	reportSpawnMetrics(b, rt, before)
}

// BenchmarkSpawnWideFlat spawns 10k children of one frame through a single
// shared closure, isolating the scheduler's own per-spawn cost from user
// capture allocations: with nothing captured per child, allocs/op measures
// the freelist machinery alone and gates at (amortized) zero.
func BenchmarkSpawnWideFlat(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	const n = 10_000
	child := func(*cilkgo.Context) {}
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mustSubmit(b, rt, func(c *cilkgo.Context) {
			for j := 0; j < n; j++ {
				c.Spawn(child)
			}
		}).Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSpawnMetrics(b, rt, before)
}

// spawnTree grows a binary spawn tree of the given depth, calling body at
// every node — the fib shape without the arithmetic, so the hyperobject
// A/B below runs identical schedules and differs only in what body does.
func spawnTree(c *cilkgo.Context, depth int, body func(*cilkgo.Context)) {
	body(c)
	if depth == 0 {
		return
	}
	c.Spawn(func(c *cilkgo.Context) { spawnTree(c, depth-1, body) })
	spawnTree(c, depth-1, body)
	c.Sync()
}

// BenchmarkSpawnHyperFree is the A-side of the in-process reducer-cost
// pair: a 4k-node spawn tree touching no hyperobjects, so every Sync takes
// the fold-free fast path (no seal, no redMu, no segment walk).
func BenchmarkSpawnHyperFree(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mustSubmit(b, rt, func(c *cilkgo.Context) {
			spawnTree(c, 11, func(*cilkgo.Context) {})
		}).Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSpawnMetrics(b, rt, before)
}

// BenchmarkSpawnReducerHeavy is the B-side: the same tree with every node
// folding into an adder reducer, so each spawn seals a view segment and
// each sync runs the full fold. Compare it with BenchmarkSpawnHyperFree from
// the same `go test -bench` process for what the hyperobject machinery costs
// spawn-dense code.
func BenchmarkSpawnReducerHeavy(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	const nodes = 1<<12 - 1 // depth-11 tree
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := hyper.NewAdder[int64]()
		if err := mustSubmit(b, rt, func(c *cilkgo.Context) {
			spawnTree(c, 11, func(c *cilkgo.Context) { sum.Add(c, 1) })
		}).Wait(); err != nil {
			b.Fatal(err)
		}
		if got := sum.Value(); got != nodes {
			b.Fatalf("reduced %d, want %d", got, nodes)
		}
	}
	b.StopTimer()
	reportSpawnMetrics(b, rt, before)
}
