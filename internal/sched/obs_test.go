package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cilkgo/internal/schedsan"
)

// captureObserver is a minimal RunObserver collecting reports for tests.
type captureObserver struct {
	mu     sync.Mutex
	starts []int64
	reps   []RunReport
}

func (c *captureObserver) RunStart(id int64, start time.Time) {
	c.mu.Lock()
	c.starts = append(c.starts, id)
	c.mu.Unlock()
}

func (c *captureObserver) RunEnd(r RunReport) {
	c.mu.Lock()
	c.reps = append(c.reps, r)
	c.mu.Unlock()
}

func (c *captureObserver) last(t *testing.T) RunReport {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.reps) == 0 {
		t.Fatal("no RunEnd reports")
	}
	return c.reps[len(c.reps)-1]
}

func spinFor(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestObsWorkSpanSpawn checks the online clocks on a flat spawn fan-out:
// work must cover the strands' spin time, and span — a max over root-to-leaf
// paths — must never exceed work and must cover at least one leaf.
func TestObsWorkSpanSpawn(t *testing.T) {
	o := &captureObserver{}
	rt := New(WithWorkers(2), WithRunObserver(o))
	defer rt.Shutdown()
	const leaves = 8
	const leafSpin = 2 * time.Millisecond
	err := mustSubmit(t, rt, func(c *Context) {
		for i := 0; i < leaves; i++ {
			c.Spawn(func(c *Context) { spinFor(leafSpin) })
		}
		c.Sync()
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	r := o.last(t)
	t.Logf("work=%v span=%v spawns=%d steals=%d", r.Stats.Work, r.Stats.Span, r.Stats.Spawns, r.Stats.Steals)
	if r.Stats.Spawns != leaves {
		t.Errorf("Spawns = %d, want %d (observer must imply per-run stats)", r.Stats.Spawns, leaves)
	}
	// Work is the sum of strand durations: at least the spins actually run.
	// Allow scheduling slop downward only via the spin floor itself.
	if min := time.Duration(leaves) * leafSpin * 9 / 10; r.Stats.Work < min {
		t.Errorf("Work = %v, want >= %v", r.Stats.Work, min)
	}
	// Span covers the longest path: at least one leaf's spin...
	if r.Stats.Span < leafSpin*9/10 {
		t.Errorf("Span = %v, want >= ~%v", r.Stats.Span, leafSpin)
	}
	// ...and is structurally bounded by work (every span segment is also a
	// work segment). This must hold on any machine under any schedule.
	if r.Stats.Span > r.Stats.Work {
		t.Errorf("Span %v > Work %v", r.Stats.Span, r.Stats.Work)
	}
}

// TestObsSpanChain checks span on a dependency chain: a unary spawn chain of
// depth n where each frame syncs its child before doing its own spin has no
// parallelism — span must approach work, not the single-strand floor.
func TestObsSpanChain(t *testing.T) {
	o := &captureObserver{}
	rt := New(WithWorkers(2), WithRunObserver(o))
	defer rt.Shutdown()
	const depth = 6
	const stepSpin = time.Millisecond
	var chain func(c *Context, n int)
	chain = func(c *Context, n int) {
		if n > 0 {
			c.Spawn(func(c *Context) { chain(c, n-1) })
			c.Sync() // serializes: the child completes before the spin below
		}
		spinFor(stepSpin)
	}
	if err := mustSubmit(t, rt, func(c *Context) { chain(c, depth) }).Wait(); err != nil {
		t.Fatal(err)
	}
	r := o.last(t)
	t.Logf("chain work=%v span=%v", r.Stats.Work, r.Stats.Span)
	want := time.Duration(depth+1) * stepSpin
	if r.Stats.Span < want*8/10 {
		t.Errorf("chain Span = %v, want >= ~%v (the chain is fully serial)", r.Stats.Span, want)
	}
	if r.Stats.Span > r.Stats.Work {
		t.Errorf("Span %v > Work %v", r.Stats.Span, r.Stats.Work)
	}
}

// TestObsCallThreadsStrand checks that Call keeps the caller's strand clock:
// work done inside a Call (and under its spawns) lands in the caller's span
// path exactly as if inlined.
func TestObsCallThreadsStrand(t *testing.T) {
	o := &captureObserver{}
	rt := New(WithWorkers(2), WithRunObserver(o))
	defer rt.Shutdown()
	const spin = 2 * time.Millisecond
	err := mustSubmit(t, rt, func(c *Context) {
		spinFor(spin)
		c.Call(func(c *Context) { spinFor(spin) })
		spinFor(spin)
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	r := o.last(t)
	t.Logf("call work=%v span=%v", r.Stats.Work, r.Stats.Span)
	if want := 3 * spin; r.Stats.Span < want*8/10 {
		t.Errorf("Span = %v, want >= ~%v (Call is on the calling strand)", r.Stats.Span, want)
	}
}

// TestObsLoopSpan checks the lazy-loop approximation: a loop's span is at
// least its longest episode and at most its work.
func TestObsLoopSpan(t *testing.T) {
	o := &captureObserver{}
	rt := New(WithWorkers(2), WithRunObserver(o))
	defer rt.Shutdown()
	const iters = 16
	const iterSpin = 500 * time.Microsecond
	err := mustSubmit(t, rt, func(c *Context) {
		c.Call(func(c *Context) {
			c.LoopRange(0, iters, 1, func(c *Context, lo, hi int) {
				for i := lo; i < hi; i++ {
					spinFor(iterSpin)
				}
			})
			c.Sync()
		})
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	r := o.last(t)
	t.Logf("loop work=%v span=%v splits=%d", r.Stats.Work, r.Stats.Span, r.Stats.LoopSplits)
	if min := time.Duration(iters) * iterSpin * 9 / 10; r.Stats.Work < min {
		t.Errorf("loop Work = %v, want >= %v", r.Stats.Work, min)
	}
	if r.Stats.Span < iterSpin/2 {
		t.Errorf("loop Span = %v, want >= ~%v", r.Stats.Span, iterSpin)
	}
	if r.Stats.Span > r.Stats.Work {
		t.Errorf("Span %v > Work %v", r.Stats.Span, r.Stats.Work)
	}
}

// TestObsSerialElision checks the observer on a serial-elision runtime: the
// run reports with work == span == its wall duration (T1 = T∞).
func TestObsSerialElision(t *testing.T) {
	o := &captureObserver{}
	rt := New(WithSerialElision(), WithRunObserver(o))
	defer rt.Shutdown()
	const spin = 2 * time.Millisecond
	err := mustSubmit(t, rt, func(c *Context) {
		c.Spawn(func(c *Context) { spinFor(spin) })
		c.Sync()
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	r := o.last(t)
	if r.Stats.Work != r.Stats.Span {
		t.Errorf("serial elision: Work %v != Span %v", r.Stats.Work, r.Stats.Span)
	}
	if r.Stats.Work < spin {
		t.Errorf("serial elision: Work %v < %v", r.Stats.Work, spin)
	}
}

// TestObsInlineSpawnSpan: on one worker lazy spawns run most children
// inline — only a spawn onto an empty deque pushes — and an inline child is
// still a spawn of the dag: its span must merge by max with the
// continuation's at the Sync, as a child popped there does. Observed fib(10)
// with every node spinning, as in internal/obs's
// TestOnlineMatchesOfflineCilkview, has an offline parallelism of about 17
// (EXPERIMENTS.md O2). Threading an inline child's span serially, as Call
// does, would report Work == Span. Each node spins 500 µs, so the run's
// work is about 90 ms against a span of about 5 ms: the strand may be
// descheduled for 20 ms on the critical path (a loaded host, -race) and
// the bound still holds.
func TestObsInlineSpawnSpan(t *testing.T) {
	o := &captureObserver{}
	rt := New(WithWorkers(1), WithRunObserver(o))
	defer rt.Shutdown()
	const leaf = 500 * time.Microsecond
	var fib func(c *Context, n int) int
	fib = func(c *Context, n int) int {
		spinFor(leaf)
		if n < 2 {
			return n
		}
		var a int
		c.Spawn(func(c *Context) { a = fib(c, n-1) })
		b := fib(c, n-2)
		c.Sync()
		return a + b
	}
	var got int
	if err := mustSubmit(t, rt, func(c *Context) { got = fib(c, 10) }).Wait(); err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
	st := o.last(t).Stats
	if st.Spawns != 88 || st.TasksRun != 88 || 2*st.Pushed >= st.Spawns {
		t.Fatalf("Spawns/TasksRun/Pushed = %d/%d/%d, want 88/88 with most children inline", st.Spawns, st.TasksRun, st.Pushed)
	}
	if st.Span <= 0 || st.Work < 4*st.Span {
		t.Fatalf("Work %v, Span %v: parallelism %.2f, want ≥ 4", st.Work, st.Span, float64(st.Work)/float64(st.Span))
	}
	t.Logf("Work %v, Span %v, parallelism %.2f, %d of %d spawns pushed",
		st.Work, st.Span, float64(st.Work)/float64(st.Span), st.Pushed, st.Spawns)
}

// TestObsCallbacksPerRun checks that every run produces exactly one
// RunStart/RunEnd pair with matching ids, including concurrent runs.
func TestObsCallbacksPerRun(t *testing.T) {
	o := &captureObserver{}
	rt := New(WithWorkers(2), WithRunObserver(o))
	defer rt.Shutdown()
	const runs = 5
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, err := rt.Submit(context.Background(), func(c *Context) {
				c.Spawn(func(c *Context) {})
				c.Sync()
			})
			if err == nil {
				tk.Wait()
			}
		}()
	}
	wg.Wait()
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.starts) != runs || len(o.reps) != runs {
		t.Fatalf("starts=%d ends=%d, want %d each", len(o.starts), len(o.reps), runs)
	}
	ids := make(map[int64]bool)
	for _, r := range o.reps {
		if ids[r.ID] {
			t.Errorf("duplicate RunEnd for id %d", r.ID)
		}
		ids[r.ID] = true
		if r.End.Before(r.Start) {
			t.Errorf("run %d: End %v before Start %v", r.ID, r.End, r.Start)
		}
	}
}

// TestObsUnobservedRunsZero checks the gating: a runtime without an observer
// reports zero Work/Span and empty latency histograms.
func TestObsUnobservedRunsZero(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	tk := mustSubmit(t, rt, func(c *Context) {
		c.Spawn(func(c *Context) { spinFor(time.Millisecond) })
		c.Sync()
	})
	st, err := tk.Stats(), tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Work != 0 || st.Span != 0 {
		t.Errorf("unobserved run has Work=%v Span=%v, want zero", st.Work, st.Span)
	}
	if h := rt.LatencyHistograms(); len(h) != 0 {
		t.Errorf("unobserved runtime has latency histograms: %v", h)
	}
}

// TestObsLatencyHistograms checks that an observed runtime records steal and
// park-to-wake latencies once runs force hunting.
func TestObsLatencyHistograms(t *testing.T) {
	o := &captureObserver{}
	rt := New(WithWorkers(4), WithRunObserver(o))
	defer rt.Shutdown()
	// Let the idle workers escalate their hunts all the way to parking, so
	// the root-injection broadcast below completes a park→wake cycle.
	for deadline := time.Now().Add(5 * time.Second); rt.parked.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("workers never parked")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		_ = mustSubmit(t, rt, func(c *Context) {
			for j := 0; j < 16; j++ {
				c.Spawn(func(c *Context) { spinFor(200 * time.Microsecond) })
			}
			c.Sync()
		}).Wait()
	}
	h := rt.LatencyHistograms()
	if _, ok := h["steal_latency"]; !ok {
		t.Fatalf("missing steal_latency histogram: %v", h)
	}
	if _, ok := h["park_to_wake"]; !ok {
		t.Fatalf("missing park_to_wake histogram: %v", h)
	}
	// Parked workers were woken by the spawn bursts at least once across the
	// runs; the histogram must have recorded those wakeups.
	if h["park_to_wake"].N == 0 {
		t.Error("park_to_wake histogram recorded nothing")
	}
}

// TestObsWorkPerRun checks that work is attributed to the run whose strands
// did it. Three observed runs share two workers under a random fault plan,
// so workers waiting in one run's sync steal and run another run's tasks.
// Each run's leaves spin a known duration, different per run, and time
// their own spins (a preempted spin overruns its nominal duration): a run's
// Work must cover its own measured spins and stay below them plus half the
// shortest other leaf — absorbing another run's leaf, or losing one of its
// own, fails. The counts must be exact and the quiescence check must find
// no live frame. Only the timing bounds get three attempts, against a
// starved host.
func TestObsWorkPerRun(t *testing.T) {
	type shape struct {
		leaves int
		spin   time.Duration
	}
	shapes := []shape{{6, 2 * time.Millisecond}, {4, 3 * time.Millisecond}, {3, 4 * time.Millisecond}}
	var leaf func(c *Context, n int, spin time.Duration, spent *atomic.Int64)
	leaf = func(c *Context, n int, spin time.Duration, spent *atomic.Int64) {
		if n == 1 {
			t0 := time.Now()
			spinFor(spin)
			spent.Add(int64(time.Since(t0)))
			return
		}
		c.Spawn(func(c *Context) { leaf(c, n/2, spin, spent) })
		leaf(c, n-n/2, spin, spent)
		c.Sync()
	}
	for attempt := 1; ; attempt++ {
		so, log := sanOpts(schedsan.RandomPlan(int64(70 + attempt)))
		o := &captureObserver{}
		rt := New(WithWorkers(2), WithRunObserver(o), WithSanitize(so))
		tks := make([]*Ticket, len(shapes))
		spent := make([]atomic.Int64, len(shapes))
		for i, sh := range shapes {
			tks[i] = mustSubmit(t, rt, func(c *Context) { leaf(c, sh.leaves, sh.spin, &spent[i]) })
		}
		timingOK := true
		for i, tk := range tks {
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			st, sh := tk.Stats(), shapes[i]
			floor := time.Duration(spent[i].Load())
			t.Logf("attempt %d run %d: work=%v (spins %v) span=%v spawns=%d run=%d steals=%d",
				attempt, i, st.Work, floor, st.Span, st.Spawns, st.TasksRun, st.Steals)
			if want := int64(sh.leaves - 1); st.Spawns != want || st.TasksRun != want {
				t.Errorf("run %d: spawns=%d tasksRun=%d, want %d each", i, st.Spawns, st.TasksRun, want)
			}
			if st.Span > st.Work {
				t.Errorf("run %d: Span %v > Work %v", i, st.Span, st.Work)
			}
			other := time.Duration(1 << 62)
			for j, o := range shapes {
				if j != i && o.spin < other {
					other = o.spin
				}
			}
			if st.Work < floor || st.Work >= floor+other/2 {
				timingOK = false
				t.Logf("run %d: Work %v outside [%v, %v)", i, st.Work, floor, floor+other/2)
			}
		}
		rt.Shutdown()
		log.empty(t)
		if timingOK || t.Failed() {
			return
		}
		if attempt == 3 {
			t.Fatal("Work outside its run's spin bounds on every attempt")
		}
	}
}
