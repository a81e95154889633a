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

// reduceForms are the two entry points of the chunk fold, each summing the
// indices of [0, n).
var reduceForms = []struct {
	name string
	sum  func(c *sched.Context, n int) int
}{
	{"Reduce", func(c *sched.Context, n int) int {
		return Reduce(c, 0, n, sumMonoid, func(c *sched.Context, i int) int { return i })
	}},
	{"ReduceRange", func(c *sched.Context, n int) int {
		return ReduceRange(c, 0, n, sumMonoid, func(c *sched.Context, l, h int) int {
			s := 0
			for i := l; i < h; i++ {
				s += i
			}
			return s
		})
	}},
}

// TestReduceAllocs pins the allocation profile of a pooled Reduce and
// ReduceRange: steady-state cost must not include a fresh Reducer per
// invocation and must stay flat in n — a chunk folds into a local
// accumulator seeded from the monoid identity (no allocation for a value
// type) and touches the reducer view once.
func TestReduceAllocs(t *testing.T) {
	cases := []struct {
		name         string
		opts         []sched.Option
		small, large int
		slack        float64 // allocs the large run may add over the small one
	}{
		// The serial elision (the deterministic schedule) costs the per-run
		// bookkeeping, the loop's spawn-tree closures/contexts (constant up to
		// n = 16384: the auto grain scales with n), and one view per strand
		// segment — ~30 allocations in all.
		{"serial", []sched.Option{sched.WithSerialElision()}, 256, 4096, 32},
		// One worker runs the loop as a single lazily peeled range task: no
		// spawn tree, so the count must not move at all with n.
		{"P=1", []sched.Option{sched.WithWorkers(1)}, 256, 65536, 2},
	}
	for _, tc := range cases {
		rt := sched.New(tc.opts...)
		for _, form := range reduceForms {
			run := func(n int) func() {
				return func() {
					var got int
					if err := mustSubmit(t, rt, func(c *sched.Context) { got = form.sum(c, n) }).Wait(); err != nil {
						t.Fatal(err)
					}
					if got != n*(n-1)/2 {
						t.Fatalf("%s %s: sum = %d", tc.name, form.name, got)
					}
				}
			}
			run(tc.large)() // warm the reducer/task/frame pools
			small := testing.AllocsPerRun(50, run(tc.small))
			large := testing.AllocsPerRun(50, run(tc.large))
			t.Logf("%s %s: %.0f allocs/op (n=%d), %.0f (n=%d)", tc.name, form.name, small, tc.small, large, tc.large)
			// The bound has headroom for pool misses; what it must catch is a
			// reintroduced per-call reducer allocation chain or any
			// per-iteration or per-chunk allocation.
			const bound = 64
			if small > bound || large > bound {
				t.Errorf("%s %s allocs/op = %.0f (n=%d), %.0f (n=%d); want ≤ %d",
					tc.name, form.name, small, tc.small, large, tc.large, bound)
			}
			if large > small+tc.slack {
				t.Errorf("%s %s allocs grew with n: %.0f (n=%d) → %.0f (n=%d)",
					tc.name, form.name, small, tc.small, large, tc.large)
			}
		}
		rt.Shutdown()
	}
}

// BenchmarkReduceIteration measures the per-iteration cost of Reduce and
// ReduceRange on the parallel runtime. Reduce pays the body call and one
// combine per iteration; ReduceRange pays one body call per chunk.
func BenchmarkReduceIteration(b *testing.B) {
	rt := sched.New(sched.WithWorkers(4))
	defer rt.Shutdown()
	const n = 1 << 16
	for _, form := range reduceForms {
		b.Run(form.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var got int
				if err := mustSubmit(b, rt, func(c *sched.Context) { got = form.sum(c, n) }).Wait(); err != nil {
					b.Fatal(err)
				}
				if got != n*(n-1)/2 {
					b.Fatalf("%s = %d", form.name, got)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/iter")
		})
	}
}
