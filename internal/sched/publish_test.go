package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cilkgo/internal/schedsan"
)

// These tests pin the two contracts of paying for sharing at the steal and
// not at the spawn: worker counters are exact once Ticket.Wait returns and
// at most publishEvery spawns stale before, and a child that is never stolen
// joins its parent without touching shared state.

// liveFrameTotal sums the live-frame gauges of every run's cells, the
// finished runs' retired totals included.
func liveFrameTotal(rt *Runtime) int64 {
	var n int64
	for _, c := range rt.cellTotals() {
		n += c.liveFrames
	}
	return n
}

// cancelAndWait cancels the run's context and waits for the (asynchronous)
// context watcher to raise the run's cancel gate.
func cancelAndWait(c *Context, cancel context.CancelFunc) {
	cancel()
	for !c.Cancelled() {
		time.Sleep(10 * time.Microsecond)
	}
}

func offStrandJoinTotal(rt *Runtime) int64 {
	var n int64
	for _, w := range rt.workers {
		n += w.ws.offStrandJoins.Load()
	}
	return n
}

// endSnapshot is a RunObserver that reads the runtime-wide counters inside
// RunEnd: on the worker finishing the root, strictly before the Ticket
// settles — the earliest instant a Wait could return, with no window for a
// later publish to paper over a missing one.
type endSnapshot struct {
	rt        *Runtime
	stats     Stats
	live, mem int64
}

func (*endSnapshot) RunStart(int64, time.Time) {}
func (e *endSnapshot) RunEnd(RunReport) {
	e.stats, e.live, e.mem = e.rt.Stats(), liveFrameTotal(e.rt), e.rt.MemLiveBytes()
}

// TestStatsExactAtWait: by the time a run is reported and its Ticket settles
// — workers still hunting, nothing shut down — the runtime-wide counters
// account for every spawn, task, skip and chunk of the run. The run's own
// Stats are the reference: the per-run cells are counted in place,
// independently of the worker counters' publication.
func TestStatsExactAtWait(t *testing.T) {
	workloads := []struct {
		name  string
		loops bool // range pieces count as tasks, so Spawns == tasks only without
		run   func(c *Context, cancel context.CancelFunc)
	}{
		{"fib", false, func(c *Context, _ context.CancelFunc) {
			var out int64
			fibYield(c, 13, &out)
		}},
		{"wideFlat", false, func(c *Context, _ context.CancelFunc) {
			for i := 0; i < 3000; i++ {
				c.Spawn(func(*Context) {})
			}
		}},
		{"nestedLoops", true, func(c *Context, _ context.CancelFunc) {
			loopRange(c, 0, 64, 2, func(c *Context, l, h int) {
				for i := l; i < h; i++ {
					loopRange(c, 0, 64, 4, func(c *Context, l, h int) {
						c.Spawn(func(*Context) {})
					})
				}
			})
		}},
		{"cancelled", false, func(c *Context, cancel context.CancelFunc) {
			for i := 0; i < 2000; i++ {
				if i == 1000 {
					cancelAndWait(c, cancel) // from here on Spawn is a no-op
				}
				c.Spawn(func(c *Context) {
					var out int64
					fib(c, 5, &out)
				})
			}
		}},
	}
	for _, p := range []int{1, 2, 4} {
		for _, faulted := range []bool{false, true} {
			end := &endSnapshot{}
			opts := []Option{WithWorkers(p), WithRunObserver(end)}
			var log *violationLog
			if faulted {
				var so schedsan.Options
				so, log = sanOpts(schedsan.RandomPlan(int64(40 + p)))
				opts = append(opts, WithSanitize(so))
			}
			rt := New(opts...)
			end.rt = rt
			for _, wl := range workloads {
				t.Run(fmt.Sprintf("%s/P%d/faulted=%v", wl.name, p, faulted), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					before := rt.Stats()
					tk, err := rt.Submit(ctx, func(c *Context) { wl.run(c, cancel) })
					if err != nil {
						t.Fatal(err)
					}
					werr := tk.Wait()
					got, live, mem := end.stats.Sub(before), end.live, end.mem
					if wl.name == "cancelled" {
						if !errors.Is(werr, ErrCanceled) {
							t.Fatalf("Wait() = %v, want ErrCanceled", werr)
						}
					} else if werr != nil {
						t.Fatal(werr)
					}
					want := tk.Stats()
					if got.Spawns != want.Spawns || got.TasksRun != want.TasksRun ||
						got.TasksSkipped != want.TasksSkipped || got.ChunksPeeled != want.ChunksPeeled {
						t.Errorf("runtime counters at Wait: spawns %d run %d skipped %d chunks %d; the run's own: %d %d %d %d",
							got.Spawns, got.TasksRun, got.TasksSkipped, got.ChunksPeeled,
							want.Spawns, want.TasksRun, want.TasksSkipped, want.ChunksPeeled)
					}
					if got.Spawns == 0 {
						t.Error("no spawns counted")
					}
					if !wl.loops && got.Spawns != got.TasksRun+got.TasksSkipped {
						t.Errorf("Spawns %d != TasksRun %d + TasksSkipped %d", got.Spawns, got.TasksRun, got.TasksSkipped)
					}
					if live != 0 || mem != 0 {
						t.Errorf("at Wait: %d live frames, %d live bytes, want 0", live, mem)
					}
				})
			}
			rt.Shutdown()
			if log != nil {
				log.empty(t)
			}
		}
	}
}

// TestStatsFoldedFromRuns: the runtime-wide counters are folded from the
// runs' own cells, so every Ticket's Stats is populated without any option,
// and once every Wait has returned the Stats() delta is exactly the sum of
// the Tickets' Stats, each counted once; its frame watermarks are the
// maximum over the runs, and the per-worker Metrics keys add up to the
// totals. The runs are submitted concurrently, sharing one or two workers,
// or each on a strand worker of its own on a serial-elision runtime, while
// a reader polls Stats: a finish moves its run's counts into the retired
// totals without a reader ever seeing the runtime's spawn count fall.
func TestStatsFoldedFromRuns(t *testing.T) {
	type counts struct {
		spawns, pushed, steals, run, skipped, splits, chunks, rangeSteals int64
	}
	countsOf := func(s Stats) counts {
		return counts{s.Spawns, s.Pushed, s.Steals, s.TasksRun, s.TasksSkipped,
			s.LoopSplits, s.ChunksPeeled, s.RangeSteals}
	}
	bodies := []func(*Context){
		func(c *Context) {
			var out int64
			fibYield(c, 14, &out)
		},
		func(c *Context) {
			loopRange(c, 0, 4096, 8, func(c *Context, l, h int) {
				for i := l; i < h; i++ {
					if i%64 == 0 {
						c.Spawn(func(*Context) {})
					}
				}
			})
		},
		func(c *Context) {
			for i := 0; i < 500; i++ {
				c.Spawn(func(c *Context) {
					var out int64
					fib(c, 4, &out)
				})
			}
		},
	}
	for _, tc := range []struct {
		name string
		opt  Option
	}{{"P1", WithWorkers(1)}, {"P2", WithWorkers(2)}, {"serial", WithSerialElision()}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := New(tc.opt)
			defer rt.Shutdown()
			before := rt.Stats()
			stop, polled := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(polled)
				last := before.Spawns
				for {
					select {
					case <-stop:
						return
					default:
					}
					if n := rt.Stats().Spawns; n < last {
						t.Errorf("Stats().Spawns fell from %d to %d while runs finished", last, n)
					} else {
						last = n
					}
					_ = rt.Metrics()
				}
			}()
			const rounds = 4
			tks := make(chan *Ticket, rounds*len(bodies))
			var wg sync.WaitGroup
			for r := 0; r < rounds; r++ {
				for _, body := range bodies {
					wg.Add(1)
					go func() {
						defer wg.Done()
						tk, err := rt.Submit(context.Background(), body)
						if err != nil {
							t.Error(err)
							return
						}
						tks <- tk
					}()
				}
			}
			wg.Wait()
			close(tks)
			var sum counts
			var maxLive, maxDepth int64
			for tk := range tks {
				if err := tk.Wait(); err != nil {
					t.Error(err)
				}
				st := tk.Stats()
				if st.Spawns == 0 || st.TasksRun == 0 || st.MaxLiveFrames == 0 || st.MemPeakBytes == 0 {
					t.Errorf("run %d: Ticket.Stats not populated: %+v", tk.ID(), st)
				}
				c := countsOf(st)
				sum.spawns += c.spawns
				sum.pushed += c.pushed
				sum.steals += c.steals
				sum.run += c.run
				sum.skipped += c.skipped
				sum.splits += c.splits
				sum.chunks += c.chunks
				sum.rangeSteals += c.rangeSteals
				maxLive = max(maxLive, st.MaxLiveFrames)
				maxDepth = max(maxDepth, st.MaxDepth)
			}
			close(stop)
			<-polled
			after := rt.Stats()
			if got := countsOf(after.Sub(before)); got != sum {
				t.Errorf("Stats() delta %+v, Σ Ticket.Stats %+v", got, sum)
			}
			if after.MaxLiveFrames != maxLive || after.MaxDepth != maxDepth {
				t.Errorf("Stats() MaxLiveFrames/MaxDepth = %d/%d, max over runs %d/%d",
					after.MaxLiveFrames, after.MaxDepth, maxLive, maxDepth)
			}
			if after.MemLiveBytes != 0 {
				t.Errorf("Stats().MemLiveBytes = %d after every Wait, want 0", after.MemLiveBytes)
			}
			m := rt.Metrics()
			for _, key := range []string{"spawns", "tasks_run", "steals"} {
				var perWorker int64
				for i := int64(0); i < m["workers"]; i++ {
					v, ok := m[fmt.Sprintf("worker.%d.%s", i, key)]
					if !ok {
						t.Fatalf("Metrics has no worker.%d.%s", i, key)
					}
					perWorker += v
				}
				if perWorker != m[key] {
					t.Errorf("Σ worker.N.%s = %d, %s = %d", key, perWorker, key, m[key])
				}
			}
		})
	}
}

// TestStatsStalenessBound: a worker that never steals, parks or joins
// off-strand still publishes every publishEvery-th spawn, so a reader sees
// the count advance while the run executes, not only at its end.
func TestStatsStalenessBound(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	const spawns = 5000
	ready, ack := make(chan struct{}), make(chan struct{})
	tk, err := rt.Submit(context.Background(), func(c *Context) {
		for i := 0; i < spawns; i++ {
			c.Spawn(func(*Context) {})
			c.Sync()
		}
		ready <- struct{}{} // still inside the run: nothing has finished or parked
		<-ack
	})
	if err != nil {
		t.Fatal(err)
	}
	<-ready
	mid := rt.Stats().Spawns
	close(ack)
	if mid <= spawns-publishEvery || mid > spawns {
		t.Errorf("mid-run Stats().Spawns = %d, want within %d of the %d spawned", mid, publishEvery, spawns)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().Spawns; got != spawns {
		t.Errorf("Stats().Spawns after Wait = %d, want %d", got, spawns)
	}
}

// TestUnstolenSpawnsJoinOnStrand is the direct evidence for the strand-local
// join: on one worker no child can complete off its parent's strand, so not
// one join goes through the atomic word; a steal-heavy run does pay for the
// children that moved.
func TestUnstolenSpawnsJoinOnStrand(t *testing.T) {
	one := New(WithWorkers(1))
	var out int64
	if err := mustSubmit(t, one, func(c *Context) { fib(c, 18, &out) }).Wait(); err != nil {
		t.Fatal(err)
	}
	one.Shutdown()
	if out != fibSerial(18) {
		t.Fatalf("fib(18) = %d", out)
	}
	if n := offStrandJoinTotal(one); n != 0 {
		t.Errorf("one worker: %d off-strand joins, want 0", n)
	}

	four := New(WithWorkers(4))
	if err := mustSubmit(t, four, func(c *Context) { fibYield(c, 16, &out) }).Wait(); err != nil {
		t.Fatal(err)
	}
	four.Shutdown()
	if out != fibSerial(16) {
		t.Fatalf("fib(16) = %d", out)
	}
	if s := four.Stats(); s.Steals == 0 {
		t.Skip("no steals happened; nothing to observe")
	}
	if n := offStrandJoinTotal(four); n == 0 {
		t.Error("four workers with steals: no off-strand joins counted")
	}
}

// TestRecycledFrameJoinStateZeroed: a frame whose life ended abnormally — it
// panicked with children outstanding, or was skipped by cancellation — goes
// back to the freelist with its join accounting zeroed, and its next life
// syncs correctly.
func TestRecycledFrameJoinStateZeroed(t *testing.T) {
	opts, log := sanOpts(schedsan.Plan{})
	rt := New(WithWorkers(1), WithSanitize(opts))
	defer rt.Shutdown()

	checkPool := func(when string) {
		t.Helper()
		// The worker is idle and everything it wrote happened before Wait
		// returned, so its freelist can be read from here.
		for _, f := range rt.workers[0].frameFree {
			if f.spawned != 0 || f.inline != 0 || f.join.Load() != 0 {
				t.Fatalf("%s: pooled frame carries spawned=%d inline=%d join=%d",
					when, f.spawned, f.inline, f.join.Load())
			}
		}
		var out int64
		if err := mustSubmit(t, rt, func(c *Context) { fib(c, 12, &out) }).Wait(); err != nil {
			t.Fatalf("%s: next run: %v", when, err)
		}
		if out != fibSerial(12) {
			t.Fatalf("%s: next run computed fib(12) = %d", when, out)
		}
	}

	err := mustSubmit(t, rt, func(c *Context) {
		c.Spawn(func(c *Context) {
			for i := 0; i < 3; i++ {
				c.Spawn(func(*Context) {})
			}
			panic("boom with three children outstanding")
		})
	}).Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait = %v, want *PanicError", err)
	}
	checkPool("after panic with outstanding children")

	ctx, cancel := context.WithCancel(context.Background())
	tk, err := rt.Submit(ctx, func(c *Context) {
		for i := 0; i < 100; i++ {
			c.Spawn(func(c *Context) { c.Spawn(func(*Context) {}) })
		}
		cancelAndWait(c, cancel) // every queued child is skipped, and still joins
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Wait = %v, want ErrCanceled", err)
	}
	checkPool("after skip-but-join")
	log.empty(t)
}
