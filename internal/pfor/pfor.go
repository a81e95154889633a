// Package pfor implements the cilk_for construct: parallel loops expressed
// as divide-and-conquer recursion over the iteration space.
//
// §2 of the paper: "A cilk_for can be viewed as divide-and-conquer parallel
// recursion using cilk_spawn and cilk_sync over the iteration space." The
// MIT Cilk predecessor forced programmers to write that recursion by hand
// (§1); this package automates it, including the automatic grain-size
// choice that keeps the spawn overhead an O(1/grain) fraction of the work
// while leaving parallelism at least ~8P.
//
// On the parallel runtime the divide-and-conquer tree is built lazily: a
// loop is submitted as a single splittable range task that the owning worker
// peels chunk by chunk, splitting only when a thief actually steals it (see
// internal/sched/loop.go), so a loop that no thief touches costs ~one deque
// push/pop per grain instead of Θ(n/grain) spawned tasks. The serial elision
// still executes the eager recursion literally — its hook stream is the
// divide-and-conquer dag Cilkview and Cilkscreen analyze.
//
// Like cilk_for, a loop here is a complete fork-join nest: For returns only
// after every iteration has finished (there is an implicit sync), and
// iterations must not depend on one another.
//
// Loops cooperate with the scheduler's cancellation layer: once the
// enclosing run is cancelled (context, deadline, sibling panic, or
// shutdown drain), the recursion stops splitting and remaining chunks are
// skipped — the chunk boundary is a cancel check site, one atomic load per
// chunk, so at most the chunks already executing finish. Iterations that
// did run still fold their reducer views in serial order at the loop's
// sync (see internal/hyper).
package pfor

import (
	"cilkgo/internal/hyper"
	"cilkgo/internal/sched"
)

// maxGrain caps the automatic grain size, mirroring the Cilk++ runtime's
// cap (2048 iterations) that bounds the serial chunk on small machines.
const maxGrain = 2048

// Grain returns the automatic grain size for a loop of n iterations on p
// workers: min(2048, ceil(n/(8p))), at least 1. Chunks of this size keep
// spawn overhead negligible while exposing ≥ ~8P-way parallelism so the
// work-stealing scheduler can balance the loop (§3.1).
func Grain(n, p int) int {
	if p < 1 {
		p = 1
	}
	if n < 1 {
		return 1
	}
	g := (n + 8*p - 1) / (8 * p)
	if g > maxGrain {
		g = maxGrain
	}
	if g < 1 {
		g = 1
	}
	return g
}

// For executes body(c, i) for every i in [lo, hi) as a parallel loop with
// the automatic grain size. It returns after all iterations complete.
func For(c *sched.Context, lo, hi int, body func(c *sched.Context, i int)) {
	ForGrain(c, lo, hi, Grain(hi-lo, c.Runtime().Workers()), body)
}

// ForGrain is For with an explicit grain size: runs of up to grain
// consecutive iterations execute serially within one strand. The loop's
// implicit sync joins only the loop's own iterations, not other children
// the caller may have spawned (the loop body runs in a called frame).
func ForGrain(c *sched.Context, lo, hi, grain int, body func(c *sched.Context, i int)) {
	forRange(c, lo, hi, grain, perIndex(body))
}

// ForRange is the range form of For, for hot loops: body(c, l, h) runs once
// per serial chunk and must execute iterations [l, h) itself. The chunks are
// disjoint, cover [lo, hi) exactly once, are at most one automatic grain
// long, and are joined by the loop's implicit sync. A loop body pays one
// call per chunk instead of one per iteration. Chunk boundaries depend on
// the schedule, so a body that accumulates floating-point values per chunk
// re-associates them differently from run to run.
func ForRange(c *sched.Context, lo, hi int, body func(c *sched.Context, l, h int)) {
	forRange(c, lo, hi, Grain(hi-lo, c.Runtime().Workers()), body)
}

// perIndex adapts a per-iteration loop body to the range form.
func perIndex(body func(c *sched.Context, i int)) func(c *sched.Context, l, h int) {
	return func(c *sched.Context, l, h int) {
		for i := l; i < h; i++ {
			body(c, i)
		}
	}
}

// forRange runs the range body over [lo, hi) in chunks of at most grain
// iterations, inside a called frame of its own.
func forRange(c *sched.Context, lo, hi, grain int, body func(c *sched.Context, l, h int)) {
	if grain < 1 {
		grain = 1
	}
	if lo >= hi {
		return
	}
	if c.Runtime().Serial() {
		// The serial elision executes the divide-and-conquer recursion
		// literally, in depth-first order — this is the dag the analysis
		// tools (Cilkview, Cilkscreen) observe through the hooks.
		c.Call(func(c *sched.Context) {
			forRec(c, lo, hi, grain, body)
		})
		return
	}
	// Parallel runtime: one lazily-split range task. The Call gives the loop
	// a private sync scope, so the implicit sync joins exactly the loop's
	// iterations and the reducer fold order is the serial loop's.
	c.Call(func(c *sched.Context) {
		c.LoopRange(lo, hi, grain, body)
	})
}

// forRec recursively halves [lo, hi), spawning the left half and recursing
// into the right, exactly the divide-and-conquer elision of cilk_for; each
// leaf runs as one body call. The enclosing called frame issues the implicit
// sync. A cancelled run stops the recursion before each split and before
// each serial chunk, so no new chunk starts once cancellation is observed.
func forRec(c *sched.Context, lo, hi, grain int, body func(c *sched.Context, l, h int)) {
	for hi-lo > grain {
		if c.Cancelled() {
			return
		}
		mid := lo + (hi-lo)/2
		lo2 := lo
		c.Spawn(func(c *sched.Context) { forRec(c, lo2, mid, grain, body) })
		lo = mid
	}
	if c.Cancelled() {
		return
	}
	body(c, lo, hi)
}

// Each runs body over every element of s in parallel: body(c, i, &s[i]).
func Each[T any](c *sched.Context, s []T, body func(c *sched.Context, i int, v *T)) {
	For(c, 0, len(s), func(c *sched.Context, i int) { body(c, i, &s[i]) })
}

// For2D executes body(c, i, j) for the product range [lo1,hi1) × [lo2,hi2),
// parallelizing the outer dimension and, when it is too narrow to occupy
// the workers, the inner dimension as well.
func For2D(c *sched.Context, lo1, hi1, lo2, hi2 int, body func(c *sched.Context, i, j int)) {
	p := c.Runtime().Workers()
	if hi1-lo1 >= 8*p {
		For(c, lo1, hi1, func(c *sched.Context, i int) {
			for j := lo2; j < hi2; j++ {
				body(c, i, j)
			}
		})
		return
	}
	For(c, lo1, hi1, func(c *sched.Context, i int) {
		For(c, lo2, hi2, func(c *sched.Context, j int) {
			body(c, i, j)
		})
	})
}

// Reduce executes body(c, i) for every i in [lo, hi) in parallel and folds
// the results with the monoid in ascending index order — a map-reduce over
// the iteration space built on a reducer hyperobject, so no locks and no
// contention are involved and the fold order matches the serial loop's.
//
// Each chunk folds its iterations into a local accumulator seeded from the
// identity and combines it into the reducer view once (see ReduceRange).
// The result is exact for every associative monoid. Floating-point sums are
// not associative: they are re-associated at chunk boundaries, which depend
// on the schedule, so two runs may differ in the last bits.
func Reduce[T any](c *sched.Context, lo, hi int, m hyper.Monoid[T], body func(c *sched.Context, i int) T) T {
	comb := hyper.CombineFunc(m)
	return ReduceRange(c, lo, hi, m, func(c *sched.Context, l, h int) T {
		acc := m.Identity()
		for i := l; i < h; i++ {
			acc = comb(acc, body(c, i))
		}
		return acc
	})
}

// ReduceRange is the range form of Reduce: body(c, l, h) returns the fold of
// iterations [l, h), and the per-chunk results are combined with the monoid
// in ascending chunk order. The chunks are ForRange's. The reducer comes
// from a per-type pool (hyper.Acquire/Release), so a ReduceRange in steady
// state does not allocate a fresh hyperobject per call. As with Reduce,
// floating-point results are re-associated at schedule-dependent chunk
// boundaries.
func ReduceRange[T any](c *sched.Context, lo, hi int, m hyper.Monoid[T], body func(c *sched.Context, l, h int) T) T {
	red := hyper.Acquire(m)
	comb := hyper.CombineFunc(m)
	ForRange(c, lo, hi, func(c *sched.Context, l, h int) {
		// Take the view after the body: a body that spawns seals the
		// strand's view segment, and the chunk's result belongs after it.
		part := body(c, l, h)
		v := red.View(c)
		*v = comb(*v, part)
	})
	// ForRange has synced, so the calling strand's view holds the full fold.
	out := *red.View(c)
	hyper.Release(c, red)
	return out
}
