package sched

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cilkgo/internal/schedsan"
)

// sanOpts is the baseline sanitizer configuration the tests build on:
// invariants armed, violations collected (not panicked) into the returned
// slice.
func sanOpts(plan schedsan.Plan) (schedsan.Options, *violationLog) {
	log := &violationLog{}
	return schedsan.Options{
		Plan:        plan,
		Invariants:  true,
		OnViolation: log.add,
	}, log
}

// fibYield is fib with a processor yield at every leaf, so thieves get
// scheduled (and the thief-side fault gates get exercised) even when the
// test host has a single CPU.
func fibYield(c *Context, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		runtime.Gosched()
		return
	}
	var a, b int64
	c.Spawn(func(c *Context) { fibYield(c, n-1, &a) })
	fibYield(c, n-2, &b)
	c.Sync()
	*out = a + b
}

type violationLog struct {
	mu   sync.Mutex
	reps []*schedsan.Report
}

func (l *violationLog) add(r *schedsan.Report) {
	l.mu.Lock()
	l.reps = append(l.reps, r)
	l.mu.Unlock()
}

func (l *violationLog) empty(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.reps {
		t.Errorf("invariant violation: %s", r.Title)
	}
}

// TestSanStealExactlyOnce drives fib's spawn tree through a fault plan that
// hammers the steal protocol — forced lost races, and stretched windows
// between a thief's read of the top item and its CAS on top, where the
// owner's last-item pop races it — with the invariant checker armed. Every
// spawned task must still run exactly once (fib's value is wrong otherwise)
// and no join counter may go negative. Part of the stress-deque CI gate.
func TestSanStealExactlyOnce(t *testing.T) {
	plan := schedsan.Plan{Seed: 101, Rules: []schedsan.Rule{
		{Point: schedsan.PointSteal, Mode: schedsan.ModeFail, Rate: 0.4},
		{Point: schedsan.PointSteal, Mode: schedsan.ModeDelay, Rate: 0.5, Delay: 5 * time.Microsecond},
	}}
	opts, log := sanOpts(plan)
	rt := New(WithWorkers(8), WithSanitize(opts))
	defer rt.Shutdown()
	want := fibSerial(18)
	for i := 0; i < 5; i++ {
		var got int64
		tk := mustSubmit(t, rt, func(c *Context) { fibYield(c, 18, &got) })
		stats, err := tk.Stats(), tk.Wait()
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("run %d: fib(18) = %d, want %d — a spawned task was lost or duplicated", i, got, want)
		}
		if stats.TasksRun != stats.Spawns {
			t.Fatalf("run %d: spawns=%d tasksRun=%d, want equal", i, stats.Spawns, stats.TasksRun)
		}
	}
	log.empty(t)
	if rt.Sanitizer().TotalFired() == 0 {
		t.Fatal("fault plan never fired — the protocol was not exercised")
	}
}

// TestSanStealFaultsFire: each steal fault in the menu reaches the deque's
// steal protocol. The root pushes two children one at a time onto an empty
// deque and waits for the other worker to steal and run each, so that
// worker's steal probes are the only ones that find work. steal/fail at
// Every: 2 fails its second such probe by construction; steal/delay at rate
// 1 stretches every steal that finds work. Each plan holds one rule, so
// san_faults_injected counts that rule's faults.
func TestSanStealFaultsFire(t *testing.T) {
	for _, rule := range []schedsan.Rule{
		{Point: schedsan.PointSteal, Mode: schedsan.ModeFail, Every: 2},
		{Point: schedsan.PointSteal, Mode: schedsan.ModeDelay, Rate: 1},
	} {
		t.Run(rule.Mode.String(), func(t *testing.T) {
			opts, log := sanOpts(schedsan.Plan{Seed: 1, Rules: []schedsan.Rule{rule}})
			rt := New(WithWorkers(2), WithSanitize(opts))
			defer rt.Shutdown()
			var ran [2]atomic.Int32
			var done [2]atomic.Bool
			tk := mustSubmit(t, rt, func(c *Context) {
				for i := range ran {
					c.Spawn(func(*Context) { // pushed: the deque is empty
						ran[i].Add(1)
						done[i].Store(true)
					})
					awaitFlag(t, &done[i])
				}
				c.Sync()
			})
			st, err := tk.Stats(), tk.Wait()
			if err != nil {
				t.Fatal(err)
			}
			for i := range ran {
				if n := ran[i].Load(); n != 1 {
					t.Errorf("child %d ran %d times, want exactly once", i, n)
				}
			}
			if st.Steals != 2 || st.TasksRun != 2 {
				t.Errorf("steals = %d, tasks run = %d; want both children stolen and run", st.Steals, st.TasksRun)
			}
			if n := rt.Metrics()["san_faults_injected"]; n < 1 {
				t.Errorf("%s injected %d faults, want at least 1", rule, n)
			}
			log.empty(t)
		})
	}
}

// TestSanRangeExactlyOnceFaulted is the range-task analogue: the lazy
// loop's peel/split/reclaim protocol under forced split skips, stretched
// peel windows, steal failures, and pool-recycle leaks. Every iteration
// must run exactly once and the piece deposits must reconstruct the exact
// serial reduction order. Part of the stress-deque CI gate.
func TestSanRangeExactlyOnceFaulted(t *testing.T) {
	plan := schedsan.Plan{Seed: 202, Rules: []schedsan.Rule{
		{Point: schedsan.PointRangeSplit, Mode: schedsan.ModeFail, Rate: 0.5},
		{Point: schedsan.PointChunkPeel, Mode: schedsan.ModeDelay, Rate: 0.3, Delay: 5 * time.Microsecond},
		{Point: schedsan.PointSteal, Mode: schedsan.ModeFail, Rate: 0.3},
		{Point: schedsan.PointRecycle, Mode: schedsan.ModeFail, Rate: 0.5},
		{Point: schedsan.PointViewFold, Mode: schedsan.ModeDelay, Rate: 0.5, Delay: 5 * time.Microsecond},
	}}
	opts, log := sanOpts(plan)
	rt := New(WithWorkers(8), WithSanitize(opts))
	defer rt.Shutdown()
	const n = 30_000
	for trial := 0; trial < 3; trial++ {
		counts := make([]int32, n)
		key := new(int)
		var folded []int
		err := mustSubmit(t, rt, func(c *Context) {
			loopRange(c, 0, n, 5, func(c *Context, l, h int) {
				v, _ := c.LookupView(key).(*orderView)
				if v == nil {
					v = &orderView{}
					c.InstallView(key, v)
				}
				for i := l; i < h; i++ {
					atomic.AddInt32(&counts[i], 1)
					v.xs = append(v.xs, i)
				}
			})
			if v, ok := c.LookupView(key).(*orderView); ok {
				folded = v.xs
			}
		}).Wait()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkExactlyOnce(t, counts)
		if len(folded) != n {
			t.Fatalf("trial %d: folded %d iterations, want %d", trial, len(folded), n)
		}
		for i, x := range folded {
			if x != i {
				t.Fatalf("trial %d: fold order broken at %d: got %d — piece deposits out of serial order", trial, i, x)
			}
		}
	}
	log.empty(t)
	if rt.Sanitizer().TotalFired() == 0 {
		t.Fatal("fault plan never fired")
	}
}

// TestSanDropWakeLiveness pins the park/wake audit's central claim: losing
// every spawn-path wake cannot hang the runtime, because the producer of
// the pushed work cannot park while its own deque is non-empty — it
// executes or re-exposes the work itself. With all wakes dropped, runs must
// still complete (slower, since parked workers only rejoin via the
// injection broadcast or their pre-park re-check).
func TestSanDropWakeLiveness(t *testing.T) {
	plan := schedsan.Plan{Seed: 303, Rules: []schedsan.Rule{
		{Point: schedsan.PointWake, Mode: schedsan.ModeDrop, Rate: 1.0},
	}}
	opts, log := sanOpts(plan)
	rt := New(WithWorkers(8), WithSanitize(opts))
	defer rt.Shutdown()
	want := fibSerial(20)
	var got int64
	tk := mustSubmit(t, rt, func(c *Context) { fib(c, 20, &got) })
	select {
	case <-tk.Done():
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hung with all spawn-path wakes dropped — the lost-wakeup argument is broken")
	}
	if got != want {
		t.Fatalf("fib(20) = %d, want %d", got, want)
	}
	log.empty(t)
	if rt.Sanitizer().TotalFired() == 0 {
		t.Fatal("no wakes were dropped — the test exercised nothing")
	}
}

// TestSanWakeFaultSchedules is the seeded park/wake regression matrix:
// randomized drop/dup/delay wake plans plus park-window delays, across
// several seeds, must neither hang nor lose tasks. These are the schedules
// that would catch a regression in the parker's under-lock re-check.
func TestSanWakeFaultSchedules(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		plan := schedsan.Plan{Seed: seed, Rules: []schedsan.Rule{
			{Point: schedsan.PointWake, Mode: schedsan.ModeDrop, Rate: 0.7},
			{Point: schedsan.PointWake, Mode: schedsan.ModeDup, Rate: 0.3},
			{Point: schedsan.PointWake, Mode: schedsan.ModeDelay, Rate: 0.3, Delay: 20 * time.Microsecond},
			{Point: schedsan.PointPark, Mode: schedsan.ModeDelay, Rate: 0.5, Delay: 50 * time.Microsecond},
		}}
		opts, log := sanOpts(plan)
		rt := New(WithWorkers(4), WithSanitize(opts))
		var got int64
		tk := mustSubmit(t, rt, func(c *Context) { fib(c, 16, &got) })
		stats, err := tk.Stats(), tk.Wait()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := fibSerial(16); got != want {
			t.Fatalf("seed %d: fib(16) = %d, want %d", seed, got, want)
		}
		if stats.TasksRun != stats.Spawns {
			t.Fatalf("seed %d: spawns=%d tasksRun=%d", seed, stats.Spawns, stats.TasksRun)
		}
		rt.Shutdown()
		log.empty(t)
	}
}

// TestSanWatchdogCatchesBrokenWakeup is the watchdog acceptance test: a
// deliberately broken root-injection wakeup (the one wakeup whose loss
// genuinely stalls the runtime) must be detected by the stall watchdog,
// reported with a dump naming the stuck workers, counted in Stats.Stalls,
// and rescued — the run completes anyway.
func TestSanWatchdogCatchesBrokenWakeup(t *testing.T) {
	var stalls []*schedsan.Report
	var mu sync.Mutex
	opts := schedsan.Options{
		Invariants: true,
		StallAfter: 40 * time.Millisecond,
		OnStall: func(r *schedsan.Report) {
			mu.Lock()
			stalls = append(stalls, r)
			mu.Unlock()
		},
		BreakInjectWake: true,
	}
	rt := New(WithWorkers(4), WithSanitize(opts))
	defer rt.Shutdown()

	// Let every worker escalate its hunt to parked; only then does the
	// broken injection wakeup leave no one to notice the new root.
	deadline := time.Now().Add(5 * time.Second)
	for rt.parked.Load() != 4 {
		if !time.Now().Before(deadline) {
			t.Fatalf("workers never parked: %d of 4", rt.parked.Load())
		}
		time.Sleep(time.Millisecond)
	}

	var got int64
	tk := mustSubmit(t, rt, func(c *Context) { fib(c, 10, &got) })
	select {
	case <-tk.Done():
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog failed to rescue the stalled runtime")
	}
	if want := fibSerial(10); got != want {
		t.Fatalf("fib(10) = %d, want %d", got, want)
	}
	if n := rt.Stats().Stalls; n < 1 {
		t.Fatalf("Stats.Stalls = %d, want >= 1", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stalls) == 0 {
		t.Fatal("no stall report delivered")
	}
	body := stalls[0].Body
	if !strings.Contains(body, "parked") || !strings.Contains(body, "worker") {
		t.Fatalf("stall dump does not name the stuck workers:\n%s", body)
	}
	if !strings.Contains(body, "1 injected roots") && !strings.Contains(body, "1 active runs") {
		t.Fatalf("stall dump does not show the outstanding work:\n%s", body)
	}
	if rep := rt.StallReport(); rep == nil {
		t.Fatal("StallReport() returned nil after a detected stall")
	}
}

// TestSanWatchdogQuietOnHealthyRuns: the watchdog must not cry wolf — a
// healthy workload with long serial chunks (progress counters flat while a
// worker runs user code) produces zero stall reports.
func TestSanWatchdogQuietOnHealthyRuns(t *testing.T) {
	opts := schedsan.Options{
		Invariants: true,
		StallAfter: 25 * time.Millisecond,
		OnStall:    func(r *schedsan.Report) { t.Errorf("false stall: %s\n%s", r.Title, r.Body) },
	}
	rt := New(WithWorkers(4), WithSanitize(opts))
	defer rt.Shutdown()
	err := mustSubmit(t, rt, func(c *Context) {
		c.Spawn(func(*Context) { time.Sleep(120 * time.Millisecond) }) // long serial strand
		var out int64
		fib(c, 15, &out)
		c.Sync()
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n := rt.Stats().Stalls; n != 0 {
		t.Fatalf("Stats.Stalls = %d on a healthy run", n)
	}
}

// TestSanDrainUnderStealFaults is the ShutdownDrain-vs-steal satellite: a
// bounded drain forced to cancel mid-flight, while thieves take forcibly
// pushed tasks under injected steal faults, must never strand a task — the
// post-drain assertions (all deques empty, injection queue empty, no
// active roots, no parked workers) are checked by sanVerifyDrained inside
// ShutdownDrain itself.
func TestSanDrainUnderStealFaults(t *testing.T) {
	plan := schedsan.Plan{Seed: 404, Rules: []schedsan.Rule{
		{Point: schedsan.PointSteal, Mode: schedsan.ModeFail, Rate: 0.3},
		{Point: schedsan.PointSteal, Mode: schedsan.ModeDelay, Rate: 0.5, Delay: 10 * time.Microsecond},
		{Point: schedsan.PointPush, Mode: schedsan.ModeFail, Rate: 1},
	}}
	opts, log := sanOpts(plan)
	rt := New(WithWorkers(8), WithSanitize(opts))

	// A wide, slow spawn tree: plenty of in-flight tasks for the drain to
	// cancel and for steals to be in flight when the deadline hits.
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := rt.Submit(context.Background(), func(c *Context) {
				var spread func(c *Context, depth int)
				spread = func(c *Context, depth int) {
					if depth == 0 {
						time.Sleep(200 * time.Microsecond)
						return
					}
					for k := 0; k < 4; k++ {
						c.Spawn(func(c *Context) { spread(c, depth-1) })
					}
					c.Sync()
				}
				spread(c, 5)
			})
			if err == nil {
				err = tk.Wait()
			}
			errs[i] = err
		}(i)
	}
	time.Sleep(2 * time.Millisecond) // let the trees start fanning out
	drained := rt.ShutdownDrain(5 * time.Millisecond)
	wg.Wait()
	for i, err := range errs {
		if err != nil && err != ErrShutdown {
			t.Fatalf("run %d: unexpected error %v", i, err)
		}
		if !drained && errs[i] == nil {
			continue // finished before the deadline — fine
		}
	}
	log.empty(t) // sanVerifyDrained ran inside ShutdownDrain; any stranding landed here
}

// TestSanInvariantDoubleDeposit seeds a deliberate protocol violation — the
// same child ordinal depositing twice, as a claim-arbitration bug would
// cause — and requires the checker to catch it.
func TestSanInvariantDoubleDeposit(t *testing.T) {
	opts, log := sanOpts(schedsan.Plan{})
	rt := New(WithWorkers(2), WithSanitize(opts))
	defer rt.Shutdown()
	err := mustSubmit(t, rt, func(c *Context) {
		f := c.frame
		views := viewMap{{key: new(int), v: &orderView{}}}
		f.depositChildViews(0, views)
		f.depositChildViews(0, views) // the bug: ordinal 0 deposits twice
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.reps) == 0 {
		t.Fatal("double deposit not detected")
	}
	if !strings.Contains(log.reps[0].Title, "duplicate reducer-view deposit") {
		t.Fatalf("unexpected violation: %s", log.reps[0].Title)
	}
}

// TestSanInvariantDoubleJoin seeds the other deliberate violation — one join
// more than the frame spawned, forged once on the strand-local count and once
// on the shared word — and requires the sync to report it, terminate, and
// leave the frame's accounting zeroed instead of hanging or corrupting the
// pool.
func TestSanInvariantDoubleJoin(t *testing.T) {
	forge := map[string]func(f *frame){
		"inline":    func(f *frame) { f.inline++ },
		"offStrand": func(f *frame) { f.join.Add(-1) },
	}
	for name, extraJoin := range forge {
		t.Run(name, func(t *testing.T) {
			opts, log := sanOpts(schedsan.Plan{})
			rt := New(WithWorkers(2), WithSanitize(opts))
			defer rt.Shutdown()
			err := mustSubmit(t, rt, func(c *Context) {
				// The bug: a spurious extra join signal on a frame with no
				// outstanding children.
				extraJoin(c.frame)
				c.Sync()
				if f := c.frame; f.spawned != 0 || f.inline != 0 || f.join.Load() != 0 {
					t.Errorf("sync left spawned=%d inline=%d join=%d", f.spawned, f.inline, f.join.Load())
				}
			}).Wait()
			if err != nil {
				t.Fatal(err)
			}
			log.mu.Lock()
			defer log.mu.Unlock()
			if len(log.reps) == 0 {
				t.Fatal("double join not detected")
			}
			if !strings.Contains(log.reps[0].Title, "a task joined twice") {
				t.Fatalf("unexpected violation: %s", log.reps[0].Title)
			}
		})
	}
}

// TestSanRunQuiescence: the per-run quiescence check passes on healthy
// workloads of every flavour (spawn trees, loops, cancellation) — i.e. the
// checker itself has no false positives.
func TestSanRunQuiescence(t *testing.T) {
	opts, log := sanOpts(schedsan.RandomPlan(7))
	rt := New(WithWorkers(4), WithSanitize(opts))
	defer rt.Shutdown()
	var out int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 15, &out) }).Wait(); err != nil {
		t.Fatal(err)
	}
	if err := mustSubmit(t, rt, func(c *Context) {
		counts := make([]int32, 5000)
		loopRange(c, 0, len(counts), 3, func(c *Context, l, h int) {
			for i := l; i < h; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
	}).Wait(); err != nil {
		t.Fatal(err)
	}
	log.empty(t)
}

// TestSanDisabledZeroImpact: a runtime without WithSanitize reports no
// sanitizer state and behaves identically (guards the nil paths).
func TestSanDisabledZeroImpact(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	if rt.Sanitizer() != nil || rt.StallReport() != nil || rt.ViolationReport() != nil {
		t.Fatal("sanitizer state visible on an unsanitized runtime")
	}
	var out int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 12, &out) }).Wait(); err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Stalls != 0 {
		t.Fatal("nonzero Stalls without a watchdog")
	}
	if _, ok := rt.Metrics()["san_violations"]; ok {
		t.Fatal("sanitizer metrics published without a sanitizer")
	}
}

// TestSanWatchdogRescuesLaneStorm is the Submit-storm variant of
// TestSanWatchdogCatchesBrokenWakeup: with the root-injection Signal
// suppressed, a multi-tenant, mixed-QoS Submit storm fills every class of
// the injection queue while every worker is parked. The stall watchdog must
// notice the queued roots (the rt.injected gauge) and its rescue broadcast
// must drain the queue — each ticket completes exactly once with a correct
// result.
func TestSanWatchdogRescuesLaneStorm(t *testing.T) {
	opts := schedsan.Options{
		Invariants:      true,
		StallAfter:      40 * time.Millisecond,
		BreakInjectWake: true,
	}
	rt := New(WithWorkers(4), WithSanitize(opts))
	defer rt.Shutdown()

	deadline := time.Now().Add(5 * time.Second)
	for rt.parked.Load() != 4 {
		if !time.Now().Before(deadline) {
			t.Fatalf("workers never parked: %d of 4", rt.parked.Load())
		}
		time.Sleep(time.Millisecond)
	}

	type sub struct {
		tk   *Ticket
		got  *int64
		runs *atomic.Int64
	}
	tenants := []string{"alpha", "beta", ""}
	var subs []sub
	for i := 0; i < 12; i++ {
		got := new(int64)
		runs := new(atomic.Int64)
		tk, err := rt.Submit(context.Background(), func(c *Context) {
			runs.Add(1)
			fib(c, 10, got)
		},
			WithTenant(tenants[i%len(tenants)]),
			WithQoS(QoSClass(i%numQoS)),
			WithPriority(i%5),
		)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		subs = append(subs, sub{tk, got, runs})
	}

	done := make(chan error, 1)
	go func() {
		for _, s := range subs {
			if err := s.tk.Wait(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog failed to rescue the lane storm")
	}
	want := fibSerial(10)
	for i, s := range subs {
		if n := s.runs.Load(); n != 1 {
			t.Fatalf("root %d ran %d times, want exactly once", i, n)
		}
		if *s.got != want {
			t.Fatalf("root %d: fib(10) = %d, want %d", i, *s.got, want)
		}
	}
	if n := rt.Stats().Stalls; n < 1 {
		t.Fatalf("Stats.Stalls = %d, want >= 1", n)
	}
}
