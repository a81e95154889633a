package pfor

import (
	"testing"

	"cilkgo/internal/hyper"
	"cilkgo/internal/sched"
)

var sumMonoid = hyper.FuncMonoid(
	func() int { return 0 },
	func(a, b int) int { return a + b },
)

// TestReducePooledReuse is the stale-view regression test for the pooled
// reducer: releasing a reducer must drop the calling strand's view-map
// entry, or a later Reduce that draws the same pointer from the pool would
// resurrect the previous reduction's folded view as its starting value.
// Back-to-back Reduce calls on one strand maximize the chance of pointer
// reuse; every call must fold from identity.
func TestReducePooledReuse(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rt := sched.New(sched.WithWorkers(workers))
		for trial := 0; trial < 20; trial++ {
			var got int
			if err := mustSubmit(t, rt, func(c *sched.Context) {
				got = Reduce(c, 0, 100, sumMonoid, func(c *sched.Context, i int) int { return i })
			}).Wait(); err != nil {
				t.Fatal(err)
			}
			if want := 99 * 100 / 2; got != want {
				t.Fatalf("workers=%d trial %d: Reduce = %d, want %d (stale pooled view?)",
					workers, trial, got, want)
			}
		}
		// Two Reduces in one computation, same strand, same type: the second
		// is the likeliest to be handed the first's pooled reducer back.
		var first, second int
		if err := mustSubmit(t, rt, func(c *sched.Context) {
			first = Reduce(c, 0, 50, sumMonoid, func(c *sched.Context, i int) int { return i })
			second = Reduce(c, 0, 10, sumMonoid, func(c *sched.Context, i int) int { return i })
		}).Wait(); err != nil {
			t.Fatal(err)
		}
		if first != 49*50/2 || second != 9*10/2 {
			t.Fatalf("workers=%d: sequential Reduces = %d, %d; want %d, %d",
				workers, first, second, 49*50/2, 9*10/2)
		}
		rt.Shutdown()
	}
}

// TestReduceAllocs pins the allocation profile of a pooled Reduce on the
// serial elision (the deterministic schedule): steady-state cost must not
// include a fresh Reducer per invocation and must stay flat in n — the
// per-iteration path is the cached view lookup, which allocates nothing.
func TestReduceAllocs(t *testing.T) {
	rt := sched.New(sched.WithSerialElision())
	defer rt.Shutdown()
	run := func(n int) func() {
		return func() {
			if err := mustSubmit(t, rt, func(c *sched.Context) {
				Reduce(c, 0, n, sumMonoid, func(c *sched.Context, i int) int { return i })
			}).Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(4096)() // warm the reducer/task/frame pools
	small := testing.AllocsPerRun(50, run(256))
	large := testing.AllocsPerRun(50, run(4096))
	// The serial elision of a pooled Reduce costs the per-run bookkeeping, the
	// loop's spawn-tree closures/contexts (constant: the auto grain scales
	// with n), and one view per strand segment — ~30 allocations in all.
	// The bound has headroom for pool misses; what it must catch is a
	// reintroduced per-call reducer allocation chain or any per-iteration
	// allocation.
	const bound = 64
	if small > bound || large > bound {
		t.Errorf("Reduce allocs/op = %.0f (n=256), %.0f (n=4096); want ≤ %d", small, large, bound)
	}
	if large > small*2 {
		t.Errorf("Reduce allocs grew with n: %.0f (n=256) → %.0f (n=4096)", small, large)
	}
}

// BenchmarkReduceIteration measures the per-iteration cost of Reduce — the
// view-lookup fast path dominates it — on the parallel runtime.
func BenchmarkReduceIteration(b *testing.B) {
	rt := sched.New(sched.WithWorkers(4))
	defer rt.Shutdown()
	const n = 1 << 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int
		if err := mustSubmit(b, rt, func(c *sched.Context) {
			got = Reduce(c, 0, n, sumMonoid, func(c *sched.Context, i int) int { return i })
		}).Wait(); err != nil {
			b.Fatal(err)
		}
		if got != n*(n-1)/2 {
			b.Fatalf("Reduce = %d", got)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/iter")
}
