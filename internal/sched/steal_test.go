package sched

import (
	"testing"
	"time"

	"cilkgo/internal/schedsan"
	"cilkgo/internal/trace"
)

// forcePushes arms the sanitizer with one rule, PointPush at rate 1: every
// Spawn pushes its child, as before lazy spawns, for tests that need deep
// deques or many queued frames.
func forcePushes() Option {
	return WithSanitize(schedsan.Options{Plan: schedsan.Plan{Seed: 1, Rules: []schedsan.Rule{
		{Point: schedsan.PointPush, Mode: schedsan.ModeFail, Rate: 1},
	}}})
}

// TestUnparkWakeupLatency is the regression test for the unpark-sleep bug:
// the old idle loop made a just-woken worker execute time.Sleep with the
// backoff accumulated *before* it went quiescent (saturating at 200µs), so
// an injected root sat in the queue for the whole stale backoff before the
// first post-wakeup sweep.
//
// The scenario leaves no room for a lucky pickup: a settle period parks
// every worker, so the trivial root injected next can only be taken by a
// worker coming out of a wakeup. Pre-fix that path slept the stale backoff
// on every trial (timer quantization makes the real delay ≥200µs, often
// ~1ms); post-fix the wakeup-to-first-sweep path contains no sleep, so the
// fastest of the trials is far below that floor.
func TestUnparkWakeupLatency(t *testing.T) {
	rt := New(WithWorkers(2), WithNoThreadLocking())
	defer rt.Shutdown()

	// Saturate the hunt first: one sleep-only root starves the other worker
	// long enough to escalate its hunt fully (pre-fix, to saturate backoff).
	if err := mustSubmit(t, rt, func(*Context) { time.Sleep(time.Millisecond) }).Wait(); err != nil {
		t.Fatal(err)
	}

	const trials = 10
	best := time.Hour
	for i := 0; i < trials; i++ {
		// Let every worker go quiescent (parked).
		time.Sleep(2 * time.Millisecond)
		// All workers are parked, so this pickup must ride a wakeup.
		start := time.Now()
		if err := mustSubmit(t, rt, func(*Context) {}).Wait(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best >= 120*time.Microsecond {
		t.Fatalf("fastest injected-root pickup took %v; an unparked worker must sweep immediately, not sleep its stale backoff first", best)
	}
}

// TestStealCounters checks that wide computations under injected steal
// faults trigger steals and that the steal counters obey their invariants:
// every steal is also an attempt, every injected steal failure is an
// attempt that stole nothing, and Metrics agrees with Stats.
func TestStealCounters(t *testing.T) {
	// Every spawn pushes (PointPush forced at rate 1): lazy spawns would run
	// most of the leaves inline and never build the long deque this test
	// needs — it tests the steal counters, not the push policy. Every
	// second steal that finds work is forced to report a lost race.
	stealFault := schedsan.Rule{Point: schedsan.PointSteal, Mode: schedsan.ModeFail, Every: 2}
	rt := New(WithWorkers(4), WithNoThreadLocking(), WithSanitize(schedsan.Options{Plan: schedsan.Plan{Seed: 1, Rules: []schedsan.Rule{
		{Point: schedsan.PointPush, Mode: schedsan.ModeFail, Rate: 1},
		stealFault,
	}}}))
	defer rt.Shutdown()

	// A wide, flat spawn: the root pushes many leaves before they drain, so
	// a thief's probes find a long deque. Retry a few times — scheduling on
	// a loaded machine may drain the deque serially.
	for try := 0; try < 20; try++ {
		err := mustSubmit(t, rt, func(c *Context) {
			for i := 0; i < 256; i++ {
				c.Spawn(func(*Context) {
					x := 0
					for j := 0; j < 2000; j++ {
						x += j
					}
					_ = x
				})
			}
			// Yield the processor with the deque full, so on a single-CPU
			// machine the hunters actually get scheduled against it.
			time.Sleep(200 * time.Microsecond)
		}).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if rt.Stats().Steals > 0 {
			break
		}
	}

	s := rt.Stats()
	m := rt.Metrics()
	if s.Steals == 0 {
		t.Fatal("no steal occurred across 20 wide runs")
	}
	faults := rt.Sanitizer().Counts()[stealFault.String()]
	t.Logf("%d steals, %d attempts, %d injected steal failures", s.Steals, s.StealAttempts, faults)
	if s.StealAttempts-s.Steals < faults {
		t.Fatalf("StealAttempts − Steals = %d < %d injected steal failures; every injected failure is an attempt that stole nothing",
			s.StealAttempts-s.Steals, faults)
	}
	if s.StealAttempts < s.Steals {
		t.Fatalf("StealAttempts = %d < Steals = %d; every steal is also an attempt",
			s.StealAttempts, s.Steals)
	}
	if s.TasksRun != s.Spawns {
		t.Fatalf("TasksRun = %d, Spawns = %d; stealing must not lose or duplicate tasks", s.TasksRun, s.Spawns)
	}
	if s.Pushed != s.Spawns {
		t.Fatalf("Pushed = %d, Spawns = %d; a forced push at rate 1 pushes every child", s.Pushed, s.Spawns)
	}

	for _, key := range []string{"steals", "steal_attempts", "failed_sweeps"} {
		if _, ok := m[key]; !ok {
			t.Errorf("Metrics missing %q", key)
		}
	}
	// Idle workers keep probing after the runs end, so only the steal count
	// is settled; Metrics, read after Stats, sees at least its attempts.
	if m["steals"] != s.Steals || m["steal_attempts"] < s.StealAttempts {
		t.Fatalf("Metrics steal counters %d/%d disagree with Stats %d/%d",
			m["steals"], m["steal_attempts"], s.Steals, s.StealAttempts)
	}
}

// TestHuntPhaseTrace checks the trace surface of the new hunt: a starved
// worker escalates spin → yield (KindHuntYield) and eventually parks while
// the run is still active, and every KindStealSuccess event immediately
// follows the KindStealAttempt on the same victim, with as many successes
// as the Steals counter.
func TestHuntPhaseTrace(t *testing.T) {
	rt := New(WithWorkers(4), WithNoThreadLocking(), WithTracing())
	defer rt.Shutdown()

	before := rt.Stats()
	rt.Tracer().Start()
	// Phase 1: starve three workers long enough to escalate fully.
	if err := mustSubmit(t, rt, func(*Context) { time.Sleep(time.Millisecond) }).Wait(); err != nil {
		t.Fatal(err)
	}
	// Phase 2: a wide run so the trace also carries steal events.
	for try := 0; try < 20; try++ {
		err := mustSubmit(t, rt, func(c *Context) {
			for i := 0; i < 256; i++ {
				c.Spawn(func(*Context) {
					x := 0
					for j := 0; j < 2000; j++ {
						x += j
					}
					_ = x
				})
			}
			// Yield the processor with the deque full, so on a single-CPU
			// machine the hunters actually get scheduled against it.
			time.Sleep(200 * time.Microsecond)
		}).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if rt.Stats().Sub(before).Steals > 0 {
			break
		}
	}
	tr := rt.Tracer().Stop()
	delta := rt.Stats().Sub(before)

	var yields, steals int64
	for _, events := range tr.Workers {
		for i, ev := range events {
			switch ev.Kind {
			case trace.KindHuntYield:
				yields++
			case trace.KindStealSuccess:
				steals++
				if i > 0 && (events[i-1].Kind != trace.KindStealAttempt || events[i-1].Arg != ev.Arg) {
					t.Error("steal-success event not immediately preceded by its steal-attempt on the same victim")
				}
			}
		}
	}
	if yields == 0 {
		t.Error("no hunt-yield event recorded while three workers starved for a millisecond")
	}
	if steals != delta.Steals || steals == 0 {
		t.Errorf("trace records %d steals, Stats says %d (want equal and nonzero; %d events dropped)",
			steals, delta.Steals, tr.TotalDropped())
	}
	if delta.FailedSweeps == 0 {
		t.Error("FailedSweeps = 0 after a starving run; hunting workers must count failed sweeps")
	}
}
