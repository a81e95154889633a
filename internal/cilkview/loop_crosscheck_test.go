package cilkview

import (
	"context"
	"sync/atomic"
	"testing"

	"cilkgo/internal/pfor"
	"cilkgo/internal/sched"
)

// The canonical loop for the eager/lazy cross-check: 1024 iterations at
// grain 16 is a complete binary divide-and-conquer over 64 leaf chunks in
// the serial elision — 63 spawns — and a single range task of 64 grains on
// the parallel runtime.
const (
	xcN     = 1024
	xcGrain = 16
	xcLeaf  = xcN / xcGrain // 64 leaf chunks in the eager dag
)

var xcSink atomic.Int64 // defeats dead-code elimination of the body's work

func xcBody(count *atomic.Int64) func(c *sched.Context, i int) {
	return func(c *sched.Context, i int) {
		x := 0
		for k := 0; k < 200; k++ { // enough work per iteration to time a strand
			x += k ^ i
		}
		xcSink.Store(int64(x))
		count.Add(1)
	}
}

// TestLoopProfilePinned pins the canonical loop's parallelism profile as
// Cilkview sees it: the serial elision executes the eager divide-and-conquer
// dag literally, so Measure must observe exactly the 63 spawns of a complete
// binary split over 64 leaves, and the measured parallelism must sit in the
// band the balanced dag predicts (≈ leaves/log₂(leaves); wide noise margin).
func TestLoopProfilePinned(t *testing.T) {
	var sink atomic.Int64
	p, err := Measure("cilk_for-1024x16", func(c *sched.Context) {
		pfor.ForGrain(c, 0, xcN, xcGrain, xcBody(&sink))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.Load(); got != xcN {
		t.Fatalf("iterations = %d, want exactly %d", got, xcN)
	}
	if p.Spawns != xcLeaf-1 {
		t.Fatalf("eager dag spawns = %d, want %d (complete binary split over %d leaves)",
			p.Spawns, xcLeaf-1, xcLeaf)
	}
	if p.Work <= 0 || p.Span <= 0 {
		t.Fatalf("degenerate profile: work=%d span=%d", p.Work, p.Span)
	}
	// Balanced 64-leaf dag: parallelism ≈ 64/(log₂64 + 1) ≈ 9. Timing noise
	// moves it, but it cannot collapse to serial or exceed the leaf count.
	if par := p.Parallelism(); par < 1.5 || par > float64(xcLeaf) {
		t.Fatalf("measured parallelism = %.2f, want in (1.5, %d]", par, xcLeaf)
	}
}

// TestLazySplitMatchesEagerDag cross-checks the lazy runtime against the
// eager dag Cilkview measured above: the lazy loop must perform the same
// work partition. With no thieves the peel sequence is deterministic and
// reproduces the eager dag's leaves exactly — 64 chunks, zero splits. Under
// steal pressure the partition may gain at most one sub-grain tail chunk per
// steal-driven split, so chunk count is bounded by leaves + LoopSplits, and
// the split tree stays logarithmic in the leaf count rather than linear in n.
func TestLazySplitMatchesEagerDag(t *testing.T) {
	// No thieves: the lazy schedule is the eager dag's leaf sequence.
	rt1 := sched.New(sched.WithWorkers(1))
	var sink atomic.Int64
	tk, err := rt1.Submit(context.Background(), func(c *sched.Context) {
		pfor.ForGrain(c, 0, xcN, xcGrain, xcBody(&sink))
	})
	if err == nil {
		err = tk.Wait()
	}
	rt1.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	st := tk.Stats()
	if got := sink.Load(); got != xcN {
		t.Fatalf("1-worker lazy run: iterations = %d, want exactly %d", got, xcN)
	}
	if st.ChunksPeeled != xcLeaf || st.LoopSplits != 0 || st.RangeSteals != 0 {
		t.Fatalf("1-worker lazy run: chunks=%d splits=%d rangeSteals=%d, want %d/0/0 (eager leaf partition)",
			st.ChunksPeeled, st.LoopSplits, st.RangeSteals, xcLeaf)
	}
	if st.Spawns != 0 {
		t.Fatalf("1-worker lazy run spawned %d tasks; the lazy loop must not spawn", st.Spawns)
	}

	// Steal pressure: same work, partition within the split-tree bounds.
	rt := sched.New(sched.WithWorkers(8))
	defer rt.Shutdown()
	for trial := 0; trial < 10; trial++ {
		var n atomic.Int64
		tk, err := rt.Submit(context.Background(), func(c *sched.Context) {
			pfor.ForGrain(c, 0, xcN, xcGrain, xcBody(&n))
		})
		if err == nil {
			err = tk.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
		st := tk.Stats()
		if got := n.Load(); got != xcN {
			t.Fatalf("trial %d: iterations counted %d, want exactly %d", trial, got, xcN)
		}
		if st.ChunksPeeled < xcLeaf {
			t.Fatalf("trial %d: chunks=%d < eager leaf count %d (iterations lost?)",
				trial, st.ChunksPeeled, xcLeaf)
		}
		if st.ChunksPeeled > st.LoopSplits+xcLeaf {
			t.Fatalf("trial %d: chunks=%d exceeds leaves+splits=%d — partition diverged from the dag",
				trial, st.ChunksPeeled, st.LoopSplits+xcLeaf)
		}
		// O(P·log(n/grain)) pieces: with P=8 and 64 grains the split tree
		// cannot approach the eager dag's 63 internal nodes per steal-free
		// execution; allow the full dag as a generous ceiling.
		if st.LoopSplits >= xcLeaf {
			t.Fatalf("trial %d: %d splits for a %d-grain loop — lazy splitting degenerated to eager",
				trial, st.LoopSplits, xcLeaf)
		}
	}
}
