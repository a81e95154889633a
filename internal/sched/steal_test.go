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

// TestStealBatchCounters checks that wide computations trigger batch steals
// and that the new counters obey their invariants: every batch is also a
// steal, batched tasks come only from batches, and the per-worker sums match
// the aggregate.
func TestStealBatchCounters(t *testing.T) {
	// Every spawn pushes (PointPush forced at rate 1): lazy spawns would run
	// most of the leaves inline and never build the long deque this test
	// needs — it tests the batch counters, not the push policy.
	rt := New(WithWorkers(4), WithNoThreadLocking(), forcePushes())
	defer rt.Shutdown()

	// A wide, flat spawn: the root pushes many leaves before they drain, so
	// a thief's first probe finds a long deque and takes a batch. Retry a few
	// times — scheduling on a loaded machine may drain the deque serially.
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
		if rt.Stats().StealBatches > 0 {
			break
		}
	}

	s := rt.Stats()
	if s.StealBatches == 0 {
		t.Fatal("no batch steal occurred across 20 wide runs")
	}
	if s.TasksStolenBatched < s.StealBatches {
		t.Fatalf("TasksStolenBatched = %d < StealBatches = %d; every batch moves at least one extra task",
			s.TasksStolenBatched, s.StealBatches)
	}
	if s.Steals < s.StealBatches {
		t.Fatalf("Steals = %d < StealBatches = %d; every batch is also a successful steal",
			s.Steals, s.StealBatches)
	}
	if s.TasksRun != s.Spawns {
		t.Fatalf("TasksRun = %d, Spawns = %d; batching must not lose or duplicate tasks", s.TasksRun, s.Spawns)
	}
	if s.Pushed != s.Spawns {
		t.Fatalf("Pushed = %d, Spawns = %d; a forced push at rate 1 pushes every child", s.Pushed, s.Spawns)
	}

	m := rt.Metrics()
	for _, key := range []string{"steal_batches", "tasks_stolen_batched", "failed_sweeps"} {
		if _, ok := m[key]; !ok {
			t.Errorf("Metrics missing %q", key)
		}
	}
	if m["steal_batches"] != s.StealBatches || m["tasks_stolen_batched"] != s.TasksStolenBatched {
		t.Fatalf("Metrics batch counters %d/%d disagree with Stats %d/%d",
			m["steal_batches"], m["tasks_stolen_batched"], s.StealBatches, s.TasksStolenBatched)
	}
}

// TestHuntPhaseTrace checks the trace surface of the new hunt: a starved
// worker escalates spin → yield (KindHuntYield) and eventually parks while
// the run is still active, and every KindStealBatch event immediately
// follows the KindStealSuccess of the same operation with a positive moved
// count that sums to the TasksStolenBatched counter.
func TestHuntPhaseTrace(t *testing.T) {
	rt := New(WithWorkers(4), WithNoThreadLocking(), WithTracing())
	defer rt.Shutdown()

	before := rt.Stats()
	rt.Tracer().Start()
	// Phase 1: starve three workers long enough to escalate fully.
	if err := mustSubmit(t, rt, func(*Context) { time.Sleep(time.Millisecond) }).Wait(); err != nil {
		t.Fatal(err)
	}
	// Phase 2: a wide run so the trace also carries batch events.
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
		if rt.Stats().Sub(before).StealBatches > 0 {
			break
		}
	}
	tr := rt.Tracer().Stop()
	delta := rt.Stats().Sub(before)

	var yields, batches, batchedTasks int64
	for _, events := range tr.Workers {
		for i, ev := range events {
			switch ev.Kind {
			case trace.KindHuntYield:
				yields++
			case trace.KindStealBatch:
				batches++
				batchedTasks += int64(ev.Arg)
				if ev.Arg < 1 {
					t.Errorf("steal-batch event with moved = %d, want >= 1", ev.Arg)
				}
				if i == 0 || events[i-1].Kind != trace.KindStealSuccess {
					t.Error("steal-batch event not immediately preceded by its steal-success")
				}
			}
		}
	}
	if yields == 0 {
		t.Error("no hunt-yield event recorded while three workers starved for a millisecond")
	}
	if batches != delta.StealBatches || batchedTasks != delta.TasksStolenBatched {
		t.Errorf("trace records %d batches / %d batched tasks, Stats says %d / %d",
			batches, batchedTasks, delta.StealBatches, delta.TasksStolenBatched)
	}
	if delta.FailedSweeps == 0 {
		t.Error("FailedSweeps = 0 after a starving run; hunting workers must count failed sweeps")
	}
}
