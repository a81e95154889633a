// Locality experiments (D-series): steal domains partition the workers and
// the hunt sweeps same-domain victims before escalating, so wide loops on a
// partitioned runtime should keep most steals local (the ≥70% same-domain
// acceptance gate) without slowing the uncontended spawn-tree shapes.
// Run with `go test -run '^$' -bench BenchmarkLocal .`.
package cilkgo_test

import (
	"testing"

	"cilkgo"
)

// reportLocalityMetrics attaches the steal-locality split to the benchmark
// output: the fraction of successful steals that stayed inside the thief's
// domain, plus escalations and affinity re-injections per operation.
func reportLocalityMetrics(b *testing.B, rt *cilkgo.Runtime, before cilkgo.Stats) {
	d := rt.Stats().Sub(before)
	n := float64(b.N)
	if d.Steals > 0 {
		b.ReportMetric(float64(d.LocalSteals)/float64(d.Steals), "local-frac")
	}
	b.ReportMetric(float64(d.Steals)/n, "steals/op")
	b.ReportMetric(float64(d.DomainEscalations)/n, "escalations/op")
	b.ReportMetric(float64(d.AffinityReinjected)/n, "affinity/op")
}

// localWideLoop is the shared shape: a flat wide loop with disjoint
// per-iteration writes, wide enough that every worker steals repeatedly.
func localWideLoop(b *testing.B, rt *cilkgo.Runtime) {
	b.Helper()
	const n = 1 << 20
	sink := make([]uint8, n)
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
	reportLocalityMetrics(b, rt, before)
}

// BenchmarkLocalWideLoopFlat is the baseline: one flat domain, the paper's
// uniform random stealing. Its local-frac is 1.0 by definition.
func BenchmarkLocalWideLoopFlat(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4))
	defer rt.Shutdown()
	localWideLoop(b, rt)
}

// BenchmarkLocalWideLoopDomains is the tentpole gate: the same loop on the
// same worker count split into two steal domains. Throughput should match
// the flat baseline while local-frac stays ≥ 0.7 — the hierarchy changes
// who gets robbed, not how much work gets done.
func BenchmarkLocalWideLoopDomains(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4), cilkgo.WithStealDomains(2))
	defer rt.Shutdown()
	localWideLoop(b, rt)
}

// BenchmarkLocalFibDomains guards the uncontended spawn-tree path: fib's
// steal rate is tiny once workers are saturated, so domain bookkeeping must
// cost nothing measurable against the flat fib baselines in BENCH.json.
func BenchmarkLocalFibDomains(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithWorkers(4), cilkgo.WithStealDomains(2))
	defer rt.Shutdown()
	var fib func(c *cilkgo.Context, n int, out *int64)
	fib = func(c *cilkgo.Context, n int, out *int64) {
		if n < 2 {
			*out = int64(n)
			return
		}
		var a, x int64
		c.Spawn(func(c *cilkgo.Context) { fib(c, n-1, &a) })
		fib(c, n-2, &x)
		c.Sync()
		*out = a + x
	}
	before := rt.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int64
		if err := rt.Run(func(c *cilkgo.Context) { fib(c, 20, &out) }); err != nil {
			b.Fatal(err)
		}
		if out != 6765 {
			b.Fatalf("fib(20) = %d", out)
		}
	}
	b.StopTimer()
	reportLocalityMetrics(b, rt, before)
}
