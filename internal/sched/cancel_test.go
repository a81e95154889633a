package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cilkgo/internal/trace"
)

// spinFib is fib with a per-leaf busy delay, so runs last long enough for a
// watcher to cancel them mid-flight even on a single-core box.
func spinFib(c *Context, n int, delay time.Duration, leaves *atomic.Int64) {
	if n < 2 {
		leaves.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return
	}
	c.Spawn(func(c *Context) { spinFib(c, n-1, delay, leaves) })
	spinFib(c, n-2, delay, leaves)
	c.Sync()
}

// TestRunCtxCancelDuringStealHeavyRun: cancelling mid-run makes Wait return
// ErrCanceled (matching context.Canceled under errors.Is), no strand of the
// computation is still executing when Wait returns, and the runtime is
// healthy for the next submission.
func TestRunCtxCancelDuringStealHeavyRun(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	var leaves atomic.Int64
	go func() {
		for leaves.Load() == 0 {
			time.Sleep(50 * time.Microsecond)
		}
		cancel()
	}()
	tk, err := rt.Submit(ctx, func(c *Context) { spinFib(c, 22, 100*time.Microsecond, &leaves) })
	if err == nil {
		err = tk.Wait()
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false, want true")
	}
	// No strand may still be running: the leaf count must be frozen.
	after := leaves.Load()
	time.Sleep(20 * time.Millisecond)
	if got := leaves.Load(); got != after {
		t.Fatalf("leaves advanced from %d to %d after Wait returned", after, got)
	}
	full := fibSerial(22)
	if after >= full {
		t.Fatalf("cancellation skipped nothing: %d leaves of %d ran", after, full)
	}
	// Fresh computation on the same runtime.
	var out int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 12, &out) }).Wait(); err != nil {
		t.Fatalf("runtime unusable after cancel: %v", err)
	}
	if out != fibSerial(12) {
		t.Fatal("wrong result after cancelled run")
	}
	if rt.Stats().TasksSkipped == 0 {
		t.Error("cancelled run skipped no tasks")
	}
}

// TestRunCtxDeadline: a deadline cancels the run and Wait returns
// ErrDeadlineExceeded, matching context.DeadlineExceeded.
func TestRunCtxDeadline(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	var leaves atomic.Int64
	start := time.Now()
	tk, err := rt.Submit(ctx, func(c *Context) { spinFib(c, 30, 50*time.Microsecond, &leaves) })
	if err == nil {
		err = tk.Wait()
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("errors.Is(err, context.DeadlineExceeded) = false, want true")
	}
	// fib(30) would take minutes at 50µs per leaf; the deadline must have
	// abandoned it quickly.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run took %v after a 5ms deadline", elapsed)
	}
}

// TestRunCtxPreCancelled: Submit rejects a context already done without
// running any of the computation.
func TestRunCtxPreCancelled(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if _, err := rt.Submit(ctx, func(*Context) { ran = true }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if ran {
		t.Fatal("fn ran under a pre-cancelled context")
	}
}

// TestContextCancelledPolling: a long serial strand observes cancellation
// through Context.Cancelled and Context.Err.
func TestContextCancelledPolling(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	sawErr := make(chan error, 1)
	tk, err := rt.Submit(ctx, func(c *Context) {
		if c.Cancelled() || c.Err() != nil {
			t.Error("fresh run already cancelled")
		}
		cancel()
		for !c.Cancelled() {
			time.Sleep(10 * time.Microsecond)
		}
		sawErr <- c.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := <-sawErr; !errors.Is(got, ErrCanceled) {
		t.Fatalf("Context.Err() = %v, want ErrCanceled", got)
	}
}

// TestPanicQuarantineCollectsSiblings: when several sibling strands panic,
// the first cancels the run and every captured panic lands in
// PanicError.All; the runtime is healthy afterwards.
func TestPanicQuarantineCollectsSiblings(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	const siblings = 8
	err := mustSubmit(t, rt, func(c *Context) {
		for i := 0; i < siblings; i++ {
			i := i
			c.Spawn(func(*Context) {
				panic(fmt.Sprintf("boom %d", i))
			})
		}
		c.Sync()
	}).Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if len(pe.All) < 1 || len(pe.All) > siblings {
		t.Fatalf("len(All) = %d, want 1..%d", len(pe.All), siblings)
	}
	if pe.Value != pe.All[0].Value {
		t.Fatalf("Value %v != All[0].Value %v", pe.Value, pe.All[0].Value)
	}
	if len(pe.All[0].Stack) == 0 {
		t.Fatal("first panic captured no stack")
	}
	// The panic must not poison the next run.
	var out int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 12, &out) }).Wait(); err != nil {
		t.Fatalf("runtime unusable after quarantine: %v", err)
	}
	if out != fibSerial(12) {
		t.Fatal("wrong result after quarantine")
	}
	if rt.Metrics()["panics_quarantined"] != int64(len(pe.All)) {
		t.Errorf("panics_quarantined = %d, want %d", rt.Metrics()["panics_quarantined"], len(pe.All))
	}
}

// TestShutdownDrainCancelsInFlight: a run that outlives the drain deadline
// is canceled with ErrShutdown, and ShutdownDrain reports the forced
// cancellation.
func TestShutdownDrainCancelsInFlight(t *testing.T) {
	rt := New(WithWorkers(2))
	started := make(chan struct{})
	tk := mustSubmit(t, rt, func(c *Context) {
		close(started)
		for !c.Cancelled() {
			time.Sleep(50 * time.Microsecond)
		}
	})
	<-started
	if drained := rt.ShutdownDrain(time.Millisecond); drained {
		t.Error("ShutdownDrain reported a clean drain while a run was spinning")
	}
	if err := tk.Wait(); !errors.Is(err, ErrShutdown) {
		t.Fatalf("in-flight run returned %v, want ErrShutdown", err)
	}
	if _, err := rt.Submit(context.Background(), func(*Context) {}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Submit after shutdown returned %v, want ErrShutdown", err)
	}
}

// TestShutdownDrainWaitsForFastRuns: runs that finish inside the drain
// window complete normally and ShutdownDrain reports a clean drain.
func TestShutdownDrainWaitsForFastRuns(t *testing.T) {
	rt := New(WithWorkers(2))
	started := make(chan struct{})
	tk := mustSubmit(t, rt, func(c *Context) {
		close(started)
		var out int64
		fib(c, 14, &out)
	})
	<-started
	if drained := rt.ShutdownDrain(30 * time.Second); !drained {
		t.Error("ShutdownDrain cancelled a run that should have finished in time")
	}
	if err := tk.Wait(); err != nil {
		t.Fatalf("in-flight run returned %v, want nil", err)
	}
}

// TestShutdownRacingRuns: submissions racing Shutdown either complete
// normally or are rejected with ErrShutdown — nothing hangs, nothing
// panics, and the workers exit.
func TestShutdownRacingRuns(t *testing.T) {
	rt := New(WithWorkers(4))
	const runs = 16
	var wg sync.WaitGroup
	errs := make([]error, runs)
	outs := make([]int64, runs)
	for i := 0; i < runs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := rt.Submit(context.Background(), func(c *Context) { fib(c, 10+i%5, &outs[i]) })
			if err == nil {
				err = tk.Wait()
			}
			errs[i] = err
		}()
	}
	time.Sleep(time.Duration(runs/2) * 100 * time.Microsecond)
	rt.Shutdown()
	wg.Wait()
	for i, err := range errs {
		switch {
		case err == nil:
			if outs[i] != fibSerial(10+i%5) {
				t.Fatalf("run %d completed with wrong result %d", i, outs[i])
			}
		case errors.Is(err, ErrShutdown):
			// rejected before starting — fine
		default:
			t.Fatalf("run %d returned %v", i, err)
		}
	}
}

// TestDoubleShutdownDrain: Shutdown and ShutdownDrain are idempotent and
// safe in any combination, including concurrently.
func TestDoubleShutdownDrain(t *testing.T) {
	rt := New(WithWorkers(2))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.ShutdownDrain(time.Millisecond)
		}()
	}
	wg.Wait()
	rt.Shutdown()
	rt.ShutdownDrain(0)
}

// TestSerialElisionCancellation: the serial elision honors pre-cancelled
// contexts, polling via Cancelled, and shutdown rejection.
func TestSerialElisionCancellation(t *testing.T) {
	rt := New(WithSerialElision())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Submit(ctx, func(*Context) {}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-cancelled serial Submit = %v, want ErrCanceled", err)
	}
	// Polled cancellation mid-run: spawns after the cancel are elided.
	ctx2, cancel2 := context.WithCancel(context.Background())
	ran := 0
	tk, err := rt.Submit(ctx2, func(c *Context) {
		c.Spawn(func(*Context) { ran++ })
		cancel2()
		for !c.Cancelled() {
			time.Sleep(10 * time.Microsecond)
		}
		c.Spawn(func(*Context) { ran++ })
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("serial Wait = %v, want ErrCanceled", err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (second spawn elided)", ran)
	}
	rt.Shutdown()
	// A submission-time failure, like a parallel runtime's: no run, no
	// ticket.
	if tk, err := rt.Submit(context.Background(), func(*Context) {}); tk != nil || !errors.Is(err, ErrShutdown) {
		t.Fatalf("serial Submit after Shutdown = (%v, %v), want (nil, ErrShutdown)", tk, err)
	}
}

// TestCancelTraceEvents: a cancelled run leaves task-skip events in the
// trace, and a panicking run leaves a panic event — PR 1's profiles show
// the abandoned work.
func TestCancelTraceEvents(t *testing.T) {
	rt := New(WithWorkers(1), WithTracing())
	defer rt.Shutdown()
	rt.Tracer().Start()
	ctx, cancel := context.WithCancel(context.Background())
	tk, err := rt.Submit(ctx, func(c *Context) {
		// Fill the single worker's deque, then cancel: everything still
		// queued must be skipped, not run.
		for i := 0; i < 64; i++ {
			c.Spawn(func(*Context) {})
		}
		cancel()
		for !c.Cancelled() {
			time.Sleep(10 * time.Microsecond)
		}
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	mustSubmit(t, rt, func(*Context) { panic("traced boom") }).Wait()
	tr := rt.Tracer().Stop()
	skips, panics := 0, 0
	for _, events := range tr.Workers {
		for _, ev := range events {
			switch ev.Kind {
			case trace.KindTaskSkip:
				skips++
			case trace.KindPanic:
				panics++
			}
		}
	}
	if skips == 0 {
		t.Error("cancelled run recorded no task-skip events")
	}
	if panics != 1 {
		t.Errorf("recorded %d panic events, want 1", panics)
	}
}

// TestRunWithStatsCtxSkippedAccounting: per-run stats of a cancelled run
// record the skipped tasks, and Spawns = TasksRun + TasksSkipped.
func TestRunWithStatsCtxSkippedAccounting(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	ctx, cancel := context.WithCancel(context.Background())
	tk, err := rt.Submit(ctx, func(c *Context) {
		for i := 0; i < 32; i++ {
			c.Spawn(func(*Context) {})
		}
		cancel()
		for !c.Cancelled() {
			time.Sleep(10 * time.Microsecond)
		}
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tk.Stats()
	if err := tk.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if s.TasksSkipped == 0 {
		t.Fatalf("stats = %+v, want skipped tasks", s)
	}
	if s.Spawns != s.TasksRun+s.TasksSkipped {
		t.Fatalf("Spawns %d != TasksRun %d + TasksSkipped %d", s.Spawns, s.TasksRun, s.TasksSkipped)
	}
}
