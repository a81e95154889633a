package pfor

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cilkgo/internal/sched"
)

// TestForCancelSkipsRemainingChunks: a cilk_for whose run is cancelled
// mid-loop abandons the remaining chunks — a bounded number of grains
// (those already executing) finish, and no new chunk starts after Wait
// returns.
func TestForCancelSkipsRemainingChunks(t *testing.T) {
	rt := sched.New(sched.WithWorkers(4))
	defer rt.Shutdown()
	const n = 100_000
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	tk, err := rt.Submit(ctx, func(c *sched.Context) {
		ForGrain(c, 0, n, 8, func(c *sched.Context, i int) {
			if started.Add(1) == 64 {
				cancel()
			}
			time.Sleep(5 * time.Microsecond)
		})
	})
	if err == nil {
		err = tk.Wait()
	}
	if !errors.Is(err, sched.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	after := started.Load()
	if after >= n {
		t.Fatalf("all %d iterations ran despite cancellation", n)
	}
	// No chunk may start once Wait has returned: the loop's fork-join
	// nest has drained.
	time.Sleep(20 * time.Millisecond)
	if got := started.Load(); got != after {
		t.Fatalf("iterations advanced from %d to %d after Wait returned", after, got)
	}
}

// TestForUncancelledCompletes: the cancel gate must not perturb an
// uncancelled loop — every iteration runs exactly once.
func TestForUncancelledCompletes(t *testing.T) {
	rt := sched.New(sched.WithWorkers(4))
	defer rt.Shutdown()
	const n = 50_000
	counts := make([]int32, n)
	err := mustSubmit(t, rt, func(c *sched.Context) {
		For(c, 0, n, func(c *sched.Context, i int) {
			atomic.AddInt32(&counts[i], 1)
		})
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range counts {
		if got != 1 {
			t.Fatalf("iteration %d ran %d times", i, got)
		}
	}
}

// TestPanicInNestedForBody: a panic deep inside a nested cilk_for is
// quarantined, the enclosing loops stop issuing chunks, and the runtime
// survives for the next submission.
func TestPanicInNestedForBody(t *testing.T) {
	rt := sched.New(sched.WithWorkers(4))
	defer rt.Shutdown()
	var ran atomic.Int64
	err := mustSubmit(t, rt, func(c *sched.Context) {
		For(c, 0, 64, func(c *sched.Context, i int) {
			For(c, 0, 64, func(c *sched.Context, j int) {
				if i == 3 && j == 7 {
					panic("nested boom")
				}
				ran.Add(1)
			})
		})
	}).Wait()
	var pe *sched.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "nested boom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	// The runtime must stay healthy: a full nested loop afterwards.
	var again atomic.Int64
	if err := mustSubmit(t, rt, func(c *sched.Context) {
		For2D(c, 0, 32, 0, 32, func(c *sched.Context, i, j int) { again.Add(1) })
	}).Wait(); err != nil {
		t.Fatalf("runtime unusable after nested panic: %v", err)
	}
	if again.Load() != 32*32 {
		t.Fatalf("recovery loop ran %d iterations, want %d", again.Load(), 32*32)
	}
}

// TestReduceOnCancelledRun: Reduce on a cancelled run returns without
// deadlock and yields a partial fold (the loop's sync still joins).
func TestReduceOnCancelledRun(t *testing.T) {
	rt := sched.New(sched.WithWorkers(2))
	defer rt.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rt.Submit(ctx, func(c *sched.Context) {
		t.Error("body ran under a pre-cancelled context")
	})
	if !errors.Is(err, sched.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
