package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// fib computes Fibonacci with one spawn per level, the canonical Cilk
// example workload.
func fib(c *Context, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	c.Spawn(func(c *Context) { fib(c, n-1, &a) })
	fib(c, n-2, &b)
	c.Sync()
	*out = a + b
}

// mustSubmit submits fn with opts under a background context and fails the
// test if Submit refuses it; the caller awaits the returned Ticket.
func mustSubmit(t testing.TB, rt *Runtime, fn func(*Context), opts ...RunOption) *Ticket {
	t.Helper()
	tk, err := rt.Submit(context.Background(), fn, opts...)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return tk
}

func fibSerial(n int) int64 {
	if n < 2 {
		return int64(n)
	}
	return fibSerial(n-1) + fibSerial(n-2)
}

func TestFibParallel(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		rt := New(WithWorkers(p))
		var got int64
		if err := mustSubmit(t, rt, func(c *Context) { fib(c, 20, &got) }).Wait(); err != nil {
			t.Fatalf("P=%d: Wait: %v", p, err)
		}
		rt.Shutdown()
		if want := fibSerial(20); got != want {
			t.Fatalf("P=%d: fib(20) = %d, want %d", p, got, want)
		}
	}
}

func TestFibSerialElision(t *testing.T) {
	rt := New(WithSerialElision())
	var got int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 18, &got) }).Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if want := fibSerial(18); got != want {
		t.Fatalf("fib(18) = %d, want %d", got, want)
	}
}

func TestSpawnWithoutSyncImpliesJoinAtReturn(t *testing.T) {
	// §1: every Cilk function syncs implicitly before it returns. A frame
	// that spawns and returns without an explicit Sync must still join.
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	var n atomic.Int64
	err := mustSubmit(t, rt, func(c *Context) {
		for i := 0; i < 100; i++ {
			c.Spawn(func(*Context) { n.Add(1) })
		}
		// no explicit Sync
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("Wait returned before implicit sync: n = %d, want 100", n.Load())
	}
}

func TestManyFlatSpawns(t *testing.T) {
	// The §3.1 loop example, scaled: a single frame spawning a large number
	// of children. This also exercises deque growth under stealing.
	rt := New(WithWorkers(8))
	defer rt.Shutdown()
	const n = 200000
	var sum atomic.Int64
	err := mustSubmit(t, rt, func(c *Context) {
		for i := 1; i <= n; i++ {
			i := i
			c.Spawn(func(*Context) { sum.Add(int64(i)) })
		}
		c.Sync()
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * (n + 1) / 2; sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestDeepSpawnChain(t *testing.T) {
	// A long spawn chain exercises frame depth bookkeeping.
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	const depth = 20000
	var reached atomic.Int64
	var down func(c *Context, d int)
	down = func(c *Context, d int) {
		if d == 0 {
			reached.Store(1)
			return
		}
		c.Spawn(func(c *Context) { down(c, d-1) })
		c.Sync()
	}
	if err := mustSubmit(t, rt, func(c *Context) { down(c, depth) }).Wait(); err != nil {
		t.Fatal(err)
	}
	if reached.Load() != 1 {
		t.Fatal("bottom of spawn chain never reached")
	}
	if s := rt.Stats(); s.MaxDepth < depth {
		t.Fatalf("MaxDepth = %d, want ≥ %d", s.MaxDepth, depth)
	}
}

func TestSyncIsLocalBarrier(t *testing.T) {
	// §1: cilk_sync is a local barrier. A sync in one frame must not wait
	// for children of other frames. We check that a sibling's sync
	// completes even while a long-running child of another frame is active.
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	release := make(chan struct{})
	var order []string
	var mu chanOrder
	err := mustSubmit(t, rt, func(c *Context) {
		c.Spawn(func(c *Context) { // frame A: blocks until released
			c.Spawn(func(*Context) { <-release })
			c.Sync()
			mu.add(&order, "A")
		})
		c.Spawn(func(c *Context) { // frame B: no children, sync is immediate
			c.Sync()
			mu.add(&order, "B")
			close(release)
		})
		c.Sync()
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "B" || order[1] != "A" {
		t.Fatalf("order = %v, want [B A]", order)
	}
}

type chanOrder struct{ mu atomic.Int32 }

func (c *chanOrder) add(order *[]string, s string) {
	for !c.mu.CompareAndSwap(0, 1) {
	}
	*order = append(*order, s)
	c.mu.Store(0)
}

func TestPanicPropagation(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	var after atomic.Int64
	err := mustSubmit(t, rt, func(c *Context) {
		c.Spawn(func(*Context) { panic("boom") })
		c.Spawn(func(*Context) { after.Add(1) })
		c.Sync()
	}).Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait error = %v, want *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Fatalf("PanicError.Value = %v, want boom", pe.Value)
	}
	// Wait must not return while spawned work is still executing.
	if after.Load() != 1 {
		t.Fatalf("sibling task did not complete before Wait returned")
	}
}

func TestPanicSerialElision(t *testing.T) {
	rt := New(WithSerialElision())
	err := mustSubmit(t, rt, func(c *Context) {
		c.Spawn(func(*Context) { panic(42) })
		c.Sync()
	}).Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != 42 {
		t.Fatalf("Value = %v, want 42", pe.Value)
	}
}

func TestConcurrentRuns(t *testing.T) {
	// §3.2 performance composability: multiple computations share the
	// workers and all complete.
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	const k = 8
	results := make([]int64, k)
	errs := make(chan error, k)
	for i := 0; i < k; i++ {
		i := i
		go func() {
			tk, err := rt.Submit(context.Background(), func(c *Context) { fib(c, 15, &results[i]) })
			if err == nil {
				err = tk.Wait()
			}
			errs <- err
		}()
	}
	for i := 0; i < k; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	want := fibSerial(15)
	for i, r := range results {
		if r != want {
			t.Fatalf("run %d: got %d, want %d", i, r, want)
		}
	}
}

func TestRunAfterShutdown(t *testing.T) {
	rt := New(WithWorkers(2))
	rt.Shutdown()
	if _, err := rt.Submit(context.Background(), func(*Context) {}); err != ErrShutdown {
		t.Fatalf("err = %v, want ErrShutdown", err)
	}
}

func TestStatsCounting(t *testing.T) {
	rt := New(WithWorkers(4), WithStealSeed(7))
	var out int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 22, &out) }).Wait(); err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	s := rt.Stats()
	if s.Spawns == 0 {
		t.Fatal("Spawns = 0")
	}
	if s.TasksRun != s.Spawns {
		t.Fatalf("TasksRun = %d, Spawns = %d; every spawned task must run", s.TasksRun, s.Spawns)
	}
	if s.Steals > s.Spawns {
		t.Fatalf("Steals = %d exceeds Spawns = %d", s.Steals, s.Spawns)
	}
	// Lazy spawns: the root's first spawn finds its worker's deque empty
	// and pushes; every push is a spawn, and a thief can only take a child
	// that was pushed (fib starts no loops, so there are no range tasks).
	if s.Pushed == 0 || s.Pushed > s.Spawns {
		t.Fatalf("Pushed = %d, Spawns = %d; want 0 < Pushed ≤ Spawns", s.Pushed, s.Spawns)
	}
	if s.Steals > s.Pushed {
		t.Fatalf("Steals = %d exceeds Pushed = %d", s.Steals, s.Pushed)
	}
	if m := rt.Metrics(); m["pushes"] != s.Pushed {
		t.Fatalf("Metrics pushes = %d, Stats.Pushed = %d", m["pushes"], s.Pushed)
	}
	if s.MaxDepth == 0 || s.MaxLiveFrames == 0 {
		t.Fatalf("depth stats missing: %+v", s)
	}
}

func TestHooksSerialOrder(t *testing.T) {
	rec := &recorderHooks{}
	rt := New(WithSerialElision(), WithHooks(rec))
	err := mustSubmit(t, rt, func(c *Context) {
		c.Spawn(func(c *Context) {
			c.Spawn(func(*Context) {})
			// implicit sync at return
		})
		c.Sync()
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Root FrameStart; spawn child; child FrameStart; child spawns
	// grandchild (Spawn, FrameStart, grandchild implicit Sync, FrameEnd);
	// child's implicit Sync; child FrameEnd; root explicit Sync; root's
	// implicit sync; root FrameEnd.
	want := []string{
		"FS",       // root start
		"SP", "FS", // spawn child, child start
		"SP", "FS", // spawn grandchild, grandchild start
		"SY", "FE", // grandchild implicit sync, grandchild end
		"SY", "FE", // child implicit sync, child end
		"SY", // root explicit sync
		"SY", // root implicit sync
		"FE", // root end
	}
	if fmt.Sprint(rec.events) != fmt.Sprint(want) {
		t.Fatalf("events = %v\nwant     %v", rec.events, want)
	}
}

type recorderHooks struct{ events []string }

func (r *recorderHooks) Spawn()      { r.events = append(r.events, "SP") }
func (r *recorderHooks) FrameStart() { r.events = append(r.events, "FS") }
func (r *recorderHooks) FrameEnd()   { r.events = append(r.events, "FE") }
func (r *recorderHooks) Sync()       { r.events = append(r.events, "SY") }
func (r *recorderHooks) CallStart()  { r.events = append(r.events, "CS") }
func (r *recorderHooks) CallEnd()    { r.events = append(r.events, "CE") }

func TestCallScopesSync(t *testing.T) {
	// A sync inside a called frame must join only the called frame's own
	// children; the caller's pending children are untouched (Cilk calls
	// open a fresh sync scope).
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	var slowDone, callSawSlowDone atomic.Bool
	release := make(chan struct{})
	err := mustSubmit(t, rt, func(c *Context) {
		c.Spawn(func(*Context) {
			<-release
			slowDone.Store(true)
		})
		c.Call(func(c *Context) {
			c.Spawn(func(*Context) {})
			c.Sync() // joins only the call's child
			callSawSlowDone.Store(slowDone.Load())
		})
		close(release)
		c.Sync()
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if callSawSlowDone.Load() {
		t.Fatal("sync inside Call waited for the caller's spawned child")
	}
	if !slowDone.Load() {
		t.Fatal("outer sync did not join the slow child")
	}
}

func TestCallHookOrder(t *testing.T) {
	rec := &recorderHooks{}
	rt := New(WithSerialElision(), WithHooks(rec))
	err := mustSubmit(t, rt, func(c *Context) {
		c.Call(func(c *Context) {
			c.Spawn(func(*Context) {})
		})
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"FS",       // root start
		"CS",       // call start
		"SP", "FS", // spawn inside call
		"SY", "FE", // spawned child's implicit sync + end
		"SY", "CE", // call's implicit sync + call end
		"SY", "FE", // root implicit sync + end
	}
	if fmt.Sprint(rec.events) != fmt.Sprint(want) {
		t.Fatalf("events = %v\nwant     %v", rec.events, want)
	}
}

func TestCallViewsFlowThrough(t *testing.T) {
	// Views accumulated before, inside, and after a Call fold in serial
	// order: the called frame is serially part of the calling strand.
	for _, p := range []int{1, 4} {
		rt := New(WithWorkers(p), WithStealSeed(5))
		key := &fakeKey{}
		err := mustSubmit(t, rt, func(c *Context) {
			appendView(c, key, "a")
			c.Call(func(c *Context) {
				appendView(c, key, "b")
				c.Spawn(func(c *Context) { appendView(c, key, "c") })
				appendView(c, key, "d")
			})
			appendView(c, key, "e")
		}).Wait()
		if err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		if got := key.final.Load(); got == nil || got.s != "abcde" {
			t.Fatalf("P=%d: fold = %v, want abcde", p, got)
		}
	}
}

func TestHooksRequireSerial(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(WithHooks) without SerialElision should panic")
		}
	}()
	New(WithWorkers(2), WithHooks(NopHooks{}))
}

func TestWorkersValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(WithWorkers(0)) should panic")
		}
	}()
	New(WithWorkers(0))
}

// fakeView is a minimal View for testing fold ordering at the sched level.
type fakeView struct{ s string }

func (v *fakeView) Merge(right View) View {
	return &fakeView{s: v.s + right.(*fakeView).s}
}

type fakeKey struct {
	final atomic.Pointer[fakeView]
}

func (k *fakeKey) Finalize(v View) { k.final.Store(v.(*fakeView)) }

// appendView appends s to the strand's current view of key.
func appendView(c *Context, key *fakeKey, s string) {
	v, _ := c.LookupView(key).(*fakeView)
	if v == nil {
		v = &fakeView{}
		c.InstallView(key, v)
	}
	v.s += s
}

func TestViewFoldSerialOrder(t *testing.T) {
	// Parent writes "a", spawns child writing "b", writes "c", spawns child
	// writing "d", writes "e", syncs, writes "f". Serial order: abcdef.
	program := func(c *Context, key *fakeKey) {
		appendView(c, key, "a")
		c.Spawn(func(c *Context) { appendView(c, key, "b") })
		appendView(c, key, "c")
		c.Spawn(func(c *Context) { appendView(c, key, "d") })
		appendView(c, key, "e")
		c.Sync()
		appendView(c, key, "f")
	}
	for _, p := range []int{1, 2, 8} {
		for seed := int64(0); seed < 10; seed++ {
			rt := New(WithWorkers(p), WithStealSeed(seed))
			key := &fakeKey{}
			if err := mustSubmit(t, rt, func(c *Context) { program(c, key) }).Wait(); err != nil {
				t.Fatal(err)
			}
			rt.Shutdown()
			got := key.final.Load()
			if got == nil || got.s != "abcdef" {
				t.Fatalf("P=%d seed=%d: folded view = %v, want abcdef", p, seed, got)
			}
		}
	}
}

func TestViewFoldRecursive(t *testing.T) {
	// A recursive computation whose serial order is an in-order walk.
	var walk func(c *Context, key *fakeKey, lo, hi int)
	walk = func(c *Context, key *fakeKey, lo, hi int) {
		if hi-lo == 1 {
			appendView(c, key, fmt.Sprintf("%d.", lo))
			return
		}
		mid := (lo + hi) / 2
		c.Spawn(func(c *Context) { walk(c, key, lo, mid) })
		walk(c, key, mid, hi)
		c.Sync()
	}
	want := ""
	for i := 0; i < 64; i++ {
		want += fmt.Sprintf("%d.", i)
	}
	for _, p := range []int{1, 4} {
		rt := New(WithWorkers(p), WithStealSeed(99))
		key := &fakeKey{}
		if err := mustSubmit(t, rt, func(c *Context) { walk(c, key, 0, 64) }).Wait(); err != nil {
			t.Fatal(err)
		}
		rt.Shutdown()
		if got := key.final.Load().s; got != want {
			t.Fatalf("P=%d: fold = %q, want %q", p, got, want)
		}
	}
}

func TestViewFoldSerialElisionMatchesParallel(t *testing.T) {
	run := func(rt *Runtime) string {
		key := &fakeKey{}
		err := mustSubmit(t, rt, func(c *Context) {
			for i := 0; i < 10; i++ {
				i := i
				appendView(c, key, fmt.Sprintf("p%d,", i))
				c.Spawn(func(c *Context) { appendView(c, key, fmt.Sprintf("c%d,", i)) })
			}
			c.Sync()
			appendView(c, key, "end")
		}).Wait()
		if err != nil {
			panic(err)
		}
		return key.final.Load().s
	}
	serial := New(WithSerialElision())
	want := run(serial)
	par := New(WithWorkers(6))
	got := run(par)
	par.Shutdown()
	if got != want {
		t.Fatalf("parallel fold %q differs from serial %q", got, want)
	}
}

func BenchmarkSpawnSyncPingPong(b *testing.B) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	b.ReportAllocs()
	b.ResetTimer()
	err := mustSubmit(b, rt, func(c *Context) {
		for i := 0; i < b.N; i++ {
			c.Spawn(func(*Context) {})
			c.Sync()
		}
	}).Wait()
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFib25(b *testing.B) {
	rt := New()
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int64
		if err := mustSubmit(b, rt, func(c *Context) { fib(c, 25, &out) }).Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
