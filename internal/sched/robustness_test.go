package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cilkgo/internal/schedsan"
	"cilkgo/internal/trace"
)

// TestPanicInDeeplyNestedChildDrains: a panic deep in the spawn tree must
// surface as a PanicError only after every outstanding task has finished.
func TestPanicInDeeplyNestedChildDrains(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	var completed atomic.Int64
	const width, depth = 4, 5
	var rec func(c *Context, d int)
	rec = func(c *Context, d int) {
		if d == 0 {
			completed.Add(1)
			return
		}
		for i := 0; i < width; i++ {
			i := i
			c.Spawn(func(c *Context) {
				if d == 3 && i == 1 {
					panic(fmt.Sprintf("boom at depth %d", d))
				}
				rec(c, d-1)
			})
		}
		c.Sync()
	}
	err := mustSubmit(t, rt, func(c *Context) { rec(c, depth) }).Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	// A fresh computation on the same runtime must work: no worker died,
	// no task leaked.
	var after int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 12, &after) }).Wait(); err != nil {
		t.Fatalf("runtime unusable after panic: %v", err)
	}
	if after != fibSerial(12) {
		t.Fatal("wrong result after recovery")
	}
}

// TestPanicInMergeDuringFold: a panic thrown by a reducer's Merge while the
// runtime folds views at a sync is captured like any other panic.
func TestPanicInMergeDuringFold(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	key := &poisonKey{}
	err := mustSubmit(t, rt, func(c *Context) {
		v := &poisonView{}
		c.InstallView(key, v)
		c.Spawn(func(c *Context) {
			c.InstallView(key, &poisonView{})
		})
		c.Sync() // fold calls Merge, which panics
	}).Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError from Merge", err)
	}
	if pe.Value != "merge exploded" {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

type poisonKey struct{}

func (*poisonKey) Finalize(View) {}

type poisonView struct{}

func (*poisonView) Merge(View) View { panic("merge exploded") }

// TestShutdownIdempotent: calling Shutdown more than once is safe.
func TestShutdownIdempotent(t *testing.T) {
	rt := New(WithWorkers(2))
	rt.Shutdown()
	rt.Shutdown()
}

// TestManyRuntimesSequential: creating and destroying many runtimes leaks
// no workers that would deadlock later runs.
func TestManyRuntimesSequential(t *testing.T) {
	for i := 0; i < 30; i++ {
		rt := New(WithWorkers(3))
		var out int64
		if err := mustSubmit(t, rt, func(c *Context) { fib(c, 10, &out) }).Wait(); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
	}
}

// TestNestedCallDepth: deeply nested Call frames track depth and fold views
// through every level.
func TestNestedCallDepth(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	key := &fakeKey{}
	const depth = 400
	err := mustSubmit(t, rt, func(c *Context) {
		var rec func(c *Context, d int)
		rec = func(c *Context, d int) {
			if d == 0 {
				appendView(c, key, "x")
				return
			}
			c.Call(func(c *Context) { rec(c, d-1) })
		}
		rec(c, depth)
		if got := c.Depth(); got != 0 {
			t.Errorf("caller depth = %d after calls returned", got)
		}
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := key.final.Load(); got == nil || got.s != "x" {
		t.Fatalf("view lost through nested calls: %v", got)
	}
}

// TestSpawnFromManyGoroutinesRejected is intentionally absent: Contexts are
// documented as strand-confined. Instead verify the supported pattern —
// separate submissions from separate goroutines — under load.
func TestConcurrentRunsStress(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	const runs = 24
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		i := i
		go func() {
			var out int64
			tk, err := rt.Submit(context.Background(), func(c *Context) { fib(c, 12+i%4, &out) })
			if err == nil {
				err = tk.Wait()
			}
			if err == nil && out != fibSerial(12+i%4) {
				err = errors.New("wrong result")
			}
			errs <- err
		}()
	}
	for i := 0; i < runs; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStatsQuiescentConsistency: after all runs finish, every spawned task
// has run and live-frame counters have returned to zero.
func TestStatsQuiescentConsistency(t *testing.T) {
	rt := New(WithWorkers(4))
	var out int64
	for i := 0; i < 5; i++ {
		if err := mustSubmit(t, rt, func(c *Context) { fib(c, 16, &out) }).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	rt.Shutdown()
	s := rt.Stats()
	if s.TasksRun != s.Spawns {
		t.Fatalf("TasksRun %d != Spawns %d at quiescence", s.TasksRun, s.Spawns)
	}
	for i, c := range rt.cellTotals() {
		if c.liveFrames != 0 {
			t.Fatalf("worker %d has %d live frames at quiescence", i, c.liveFrames)
		}
	}
}

// TestZeroWorkRun: an empty computation completes and reports clean stats.
func TestZeroWorkRun(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	if err := mustSubmit(t, rt, func(*Context) {}).Wait(); err != nil {
		t.Fatal(err)
	}
	if s := rt.Stats(); s.Spawns != 0 || s.Steals != 0 {
		t.Fatalf("stats = %+v, want all zero", s)
	}
}

// TestPanicInlineChildQuarantined: a child that runs inline at its Spawn
// (lazy spawns: the worker's deque already held work) panics. The panic is
// quarantined at the child, as for a pushed child on any parallel
// schedule: it must not unwind the parent's continuation, Wait reports
// exactly that one panic, and the run settles with no live bytes. In the
// second case the inline child pushed a child of its own before panicking;
// that child must be run or skipped before Wait returns, which the
// sanitizer's quiescence check at Wait verifies.
//
// The root first pushes a no-op child, so the deque is non-empty at the
// next spawn. A steal fault at rate 1 keeps the second worker from taking
// it, which would empty the deque and make the next spawn push.
func TestPanicInlineChildQuarantined(t *testing.T) {
	noSteals := []schedsan.Rule{
		{Point: schedsan.PointSteal, Mode: schedsan.ModeFail, Rate: 1},
	}
	cases := []struct {
		name string
		// push is the extra PointPush rule, nil for none. Every: 2 fires at
		// the worker's 2nd, 4th, … lazy-spawn decision: the panicking child
		// (1st) runs inline and its first child (2nd) is pushed.
		push                        *schedsan.Rule
		pushed, tasksRun, tasksSkip int64
	}{
		{name: "leaf", pushed: 1, tasksRun: 1, tasksSkip: 1},
		{name: "with-pushed-children", push: &schedsan.Rule{Point: schedsan.PointPush, Mode: schedsan.ModeFail, Every: 2},
			pushed: 2, tasksRun: 2, tasksSkip: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rules := noSteals
			if tc.push != nil {
				rules = append(rules[:len(rules):len(rules)], *tc.push)
			}
			opts, log := sanOpts(schedsan.Plan{Seed: 1, Rules: rules})
			rt := New(WithWorkers(2), WithSanitize(opts))
			defer rt.Shutdown()
			var x, sawX atomic.Int64
			sawX.Store(-1)
			tk := mustSubmit(t, rt, func(c *Context) {
				c.Spawn(func(*Context) {}) // pushed: the deque was empty
				c.Spawn(func(c *Context) { // inline: the deque holds the first child
					sawX.Store(x.Load())
					if tc.push != nil {
						c.Spawn(func(*Context) {}) // pushed by the Every-2 fault
						c.Spawn(func(*Context) {}) // inline
					}
					panic("boom")
				})
				x.Store(1)
				c.Sync()
			})
			onePanic(t, tk.Wait())
			if x.Load() != 1 {
				t.Fatal("the panic unwound the parent's continuation: x.Store(1) never ran")
			}
			if sawX.Load() != 0 {
				t.Fatalf("panicking child saw x = %d, want 0 (it must run inline, before the continuation)", sawX.Load())
			}
			st := tk.Stats()
			if st.MemLiveBytes != 0 {
				t.Fatalf("MemLiveBytes = %d, want 0", st.MemLiveBytes)
			}
			if st.Pushed != tc.pushed || st.TasksRun != tc.tasksRun || st.TasksSkipped != tc.tasksSkip {
				t.Fatalf("Pushed/TasksRun/TasksSkipped = %d/%d/%d, want %d/%d/%d",
					st.Pushed, st.TasksRun, st.TasksSkipped, tc.pushed, tc.tasksRun, tc.tasksSkip)
			}
			log.empty(t)
		})
	}
}

// awaitFlag spins until another worker sets flag, yielding so the setter
// gets scheduled even on one CPU. It gives up after 10 s and reports the
// missing worker as a test failure rather than a hang.
func awaitFlag(t *testing.T, flag *atomic.Bool) {
	for deadline := time.Now().Add(10 * time.Second); !flag.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Error("no other worker took the published work within 10 s")
			return
		}
	}
}

// onePanic asserts that err is a *PanicError carrying exactly one "boom".
func onePanic(t *testing.T, err error) {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait() = %v, want *PanicError", err)
	}
	if len(pe.All) != 1 || pe.Value != "boom" {
		t.Fatalf("PanicError carries %d panics (first %v), want exactly the one boom", len(pe.All), pe.Value)
	}
}

// TestPanicCallDrainsStolenChild: a panic unwinds through a Call whose
// frame has a child running on another worker. The called frame must be
// drained on the way out, so that child has finished when Wait returns,
// and its frame refunded, so the run settles with no live bytes.
func TestPanicCallDrainsStolenChild(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	var started, finished atomic.Bool
	tk := mustSubmit(t, rt, func(c *Context) {
		c.Call(func(c *Context) {
			c.Spawn(func(*Context) { // pushed: the deque is empty
				started.Store(true)
				time.Sleep(20 * time.Millisecond)
				finished.Store(true)
			})
			awaitFlag(t, &started) // the other worker stole the child
			panic("boom")
		})
	})
	onePanic(t, tk.Wait())
	if !finished.Load() {
		t.Fatal("Wait returned while a child of the panicking Call was still running")
	}
	if st := tk.Stats(); st.MemLiveBytes != 0 || st.TasksRun != 1 {
		t.Fatalf("MemLiveBytes = %d, TasksRun = %d, want 0 and 1", st.MemLiveBytes, st.TasksRun)
	}
}

// TestPanicCallDrainsStolenPiece: the owner's chunk of a LoopRange inside a
// Call — the shape of every pfor loop — panics while a thief runs the
// loop's other piece. Wait must return only after that piece has ended.
func TestPanicCallDrainsStolenPiece(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	var thiefIn, pieceDone atomic.Bool
	tk := mustSubmit(t, rt, func(c *Context) {
		c.Call(func(c *Context) {
			c.LoopRange(0, 2, 1, func(c *Context, lo, hi int) {
				if lo == 0 { // the owner's chunk; [1, 2) is published meanwhile
					awaitFlag(t, &thiefIn)
					panic("boom")
				}
				thiefIn.Store(true)
				time.Sleep(20 * time.Millisecond)
				pieceDone.Store(true)
			})
		})
	})
	onePanic(t, tk.Wait())
	if !pieceDone.Load() {
		t.Fatal("Wait returned while a stolen piece of the panicking loop was still running")
	}
	if st := tk.Stats(); st.MemLiveBytes != 0 {
		t.Fatalf("MemLiveBytes = %d, want 0", st.MemLiveBytes)
	}
}

// TestPanicCallSettlesMemory: a panic unwinding through a Call must not
// leave the called frame charged to the run, on one worker, on two, and on
// the serial elision. The callee spawns a child first, so the drain has
// something to do on the parallel runtimes.
func TestPanicCallSettlesMemory(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"P=1", WithWorkers(1)},
		{"P=2", WithWorkers(2)},
		{"serial", WithSerialElision()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(tc.opt)
			defer rt.Shutdown()
			tk := mustSubmit(t, rt, func(c *Context) {
				c.Call(func(c *Context) {
					c.Spawn(func(*Context) {})
					panic("boom")
				})
			})
			onePanic(t, tk.Wait())
			if st := tk.Stats(); st.MemLiveBytes != 0 {
				t.Fatalf("MemLiveBytes = %d, want 0", st.MemLiveBytes)
			}
		})
	}
}

// TestPanicHeldChunkJoins: a loop body panics in a chunk the owner's inline
// peel still holds the range task for (here the loop's only chunk), so no
// thief will ever release the task's join unit. The peel must release it on
// the way out, or the drain after the panic — the enclosing frame's, or the
// Call's — waits for it forever.
func TestPanicHeldChunkJoins(t *testing.T) {
	rt := New(WithWorkers(2)) // not shut down on failure: a stuck run would block Shutdown
	boom := func(c *Context) {
		c.LoopRange(0, 1, 1, func(*Context, int, int) { panic("boom") })
	}
	for _, tc := range []struct {
		name string
		fn   func(c *Context)
	}{
		{"direct", boom},
		{"in-call", func(c *Context) { c.Call(boom) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tk := mustSubmit(t, rt, tc.fn)
			select {
			case <-tk.Done():
			case <-time.After(10 * time.Second):
				t.Fatal("the run never finished: the panicking chunk's join unit was not released")
			}
			onePanic(t, tk.Wait())
			if st := tk.Stats(); st.MemLiveBytes != 0 {
				t.Fatalf("MemLiveBytes = %d, want 0", st.MemLiveBytes)
			}
		})
	}
	rt.Shutdown()
}

// TestPanicStolenRangePiece: a loop body panics inside a range piece a
// thief stole. The steal is deterministic: the owner's first chunk spins
// until the other worker's chunk — the stolen remainder — sets a flag. The
// piece is a frame like any child, so the panic is quarantined once, the
// piece is counted and traced as a task, and the run settles clean.
func TestPanicStolenRangePiece(t *testing.T) {
	opts, log := sanOpts(schedsan.Plan{Seed: 1})
	rt := New(WithWorkers(2), WithTracing(), WithSanitize(opts))
	defer rt.Shutdown()
	tr := rt.Tracer()
	tr.Start()
	var thiefIn atomic.Bool
	tk := mustSubmit(t, rt, func(c *Context) {
		c.LoopRange(0, 2, 1, func(c *Context, lo, hi int) {
			if lo == 0 {
				awaitFlag(t, &thiefIn)
				return
			}
			thiefIn.Store(true)
			panic("boom")
		})
	})
	onePanic(t, tk.Wait())
	snap := tr.Stop()
	st := tk.Stats()
	if st.MemLiveBytes != 0 || st.TasksRun != 1 || st.RangeSteals != 1 {
		t.Fatalf("MemLiveBytes = %d, TasksRun = %d, RangeSteals = %d, want 0, 1 and 1",
			st.MemLiveBytes, st.TasksRun, st.RangeSteals)
	}
	var starts, ends, panics int
	for _, events := range snap.Workers {
		for _, ev := range events {
			switch ev.Kind {
			case trace.KindTaskStart:
				starts++
			case trace.KindTaskEnd:
				ends++
			case trace.KindPanic:
				panics++
			}
		}
	}
	// The root and the piece.
	if starts != 2 || ends != 2 || panics != 1 {
		t.Fatalf("trace has %d task starts, %d task ends and %d panics, want 2, 2 and 1", starts, ends, panics)
	}
	log.empty(t)
}
