package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoryBudgetCancelAtChunkBoundary pins the enforcement latency: a run
// whose Charge trips its budget at loop iteration k executes exactly k+1
// iterations — the tripping one finishes its grain, the next chunk boundary
// observes the cancel. One worker and grain 1 make the schedule
// deterministic (no thief can take the remainder).
func TestMemoryBudgetCancelAtChunkBoundary(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()

	const (
		budget = int64(1 << 20)
		tripAt = 7
		n      = 1000
	)
	var iters atomic.Int64
	tk, err := rt.Submit(context.Background(), func(c *Context) {
		c.LoopRange(0, n, 1, func(c *Context, lo, hi int) {
			for i := lo; i < hi; i++ {
				iters.Add(1)
				if i == tripAt {
					c.Charge(2 * budget)
				}
			}
		})
	}, WithMemoryBudget(budget))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if werr := tk.Wait(); !errors.Is(werr, ErrMemoryBudget) {
		t.Fatalf("Wait() = %v, want ErrMemoryBudget", werr)
	}
	if got := iters.Load(); got != tripAt+1 {
		t.Fatalf("ran %d iterations, want exactly %d (trip at %d + its own chunk)",
			got, tripAt+1, tripAt)
	}
	if got := rt.Metrics()["mem_budget_cancels"]; got != 1 {
		t.Fatalf("mem_budget_cancels = %d, want 1", got)
	}
}

// TestMemoryBudgetSpawnBomb: a run whose queued frames alone exceed the
// budget is cancelled — queued-but-unrun spawns are charged at allocation,
// which is exactly the help-first space blowup Cilkmem bounds.
func TestMemoryBudgetSpawnBomb(t *testing.T) {
	// Every spawn pushes (PointPush forced at rate 1): the help-first
	// blowup — thousands of queued children — is the case a budget bounds.
	// Lazy spawns would run all but one child inline (TestFlatSpawnSpace).
	rt := New(WithWorkers(2), forcePushes())
	defer rt.Shutdown()

	// Budget worth ~32 frames; the root tries to spawn far more children
	// than that before any can retire (each blocks briefly).
	budget := 32 * frameMemBytes
	tk, err := rt.Submit(context.Background(), func(c *Context) {
		for i := 0; i < 10000; i++ {
			c.Spawn(func(c *Context) { time.Sleep(time.Microsecond) })
		}
		c.Sync()
	}, WithMemoryBudget(budget))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if werr := tk.Wait(); !errors.Is(werr, ErrMemoryBudget) {
		t.Fatalf("Wait() = %v, want ErrMemoryBudget", werr)
	}
	st := tk.Stats()
	if st.MemPeakBytes <= budget {
		t.Fatalf("MemPeakBytes = %d, want > budget %d", st.MemPeakBytes, budget)
	}
	// Every frame refunds on retirement and the run made no user charges,
	// so the terminal live balance is exactly zero.
	if st.MemLiveBytes != 0 {
		t.Fatalf("terminal MemLiveBytes = %d, want 0", st.MemLiveBytes)
	}
}

// TestMemoryBudgetUnderBudgetCompletes: a balanced run below its budget
// finishes cleanly, refunds to zero, and reports a plausible peak.
func TestMemoryBudgetUnderBudgetCompletes(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()

	const chunk = int64(1 << 10)
	tk, err := rt.Submit(context.Background(), func(c *Context) {
		for i := 0; i < 8; i++ {
			c.Spawn(func(c *Context) {
				c.Charge(chunk)
				c.Refund(chunk)
			})
		}
		c.Sync()
	}, WithMemoryBudget(1<<20))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if werr := tk.Wait(); werr != nil {
		t.Fatalf("Wait() = %v, want nil", werr)
	}
	st := tk.Stats()
	if st.MemLiveBytes != 0 {
		t.Fatalf("terminal MemLiveBytes = %d, want 0", st.MemLiveBytes)
	}
	if st.MemPeakBytes < chunk {
		t.Fatalf("MemPeakBytes = %d, want >= one chunk %d", st.MemPeakBytes, chunk)
	}
}

// TestMemoryBudgetSerialElision: enforcement works in serial-elision mode —
// a tripping Charge stops subsequent spawns and the Ticket reports
// ErrMemoryBudget.
func TestMemoryBudgetSerialElision(t *testing.T) {
	rt := New(WithSerialElision())
	defer rt.Shutdown()

	var ran int
	tk, err := rt.Submit(context.Background(), func(c *Context) {
		for i := 0; i < 10; i++ {
			c.Spawn(func(c *Context) { ran++ })
			if i == 2 {
				c.Charge(1 << 30)
			}
		}
		c.Sync()
	}, WithMemoryBudget(1<<20))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if werr := tk.Wait(); !errors.Is(werr, ErrMemoryBudget) {
		t.Fatalf("Wait() = %v, want ErrMemoryBudget", werr)
	}
	// Spawns 0..2 ran before the trip; the serial spawn boundary skips the
	// rest.
	if ran != 3 {
		t.Fatalf("ran %d serial spawns, want 3", ran)
	}
}

// tenantMemory reads one tenant's in-flight admission-charged bytes.
func tenantMemory(t *testing.T, rt *Runtime, tenant string) int64 {
	t.Helper()
	for _, tl := range rt.LoadReport().Tenants {
		if tl.Tenant == tenant {
			return tl.Memory
		}
	}
	return 0
}

// TestMemoryRefundAudit is the refund-exactly-once regression: a root
// cancelled before pickup and a run that dies in a panic must both return
// their admission-charged memory exactly once — the tenant's balance settles
// at zero, never negative (a double refund) and never positive (a leak).
func TestMemoryRefundAudit(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()

	// Case 1: cancel before pickup. Block the only worker, queue a charged
	// root behind it, cancel it while queued, then let the worker drain it
	// (skip-but-join still releases the reservation).
	release := make(chan struct{})
	blocker, err := rt.Submit(context.Background(), func(c *Context) { <-release })
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	victim, err := rt.Submit(ctx, func(c *Context) {}, WithTenant("audit"), WithMemoryBudget(1<<16))
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	if got := tenantMemory(t, rt, "audit"); got != 1<<16 {
		t.Fatalf("queued victim holds %d bytes, want %d", got, 1<<16)
	}
	cancel()
	// The ctx watcher goroutine propagates the cancel asynchronously; hold
	// the blocker until the victim's run is marked canceled, or the worker
	// could pick it up and run it to clean completion first.
	for !victim.rs.canceled.Load() {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	if werr := blocker.Wait(); werr != nil {
		t.Fatalf("blocker: %v", werr)
	}
	if werr := victim.Wait(); !errors.Is(werr, ErrCanceled) {
		t.Fatalf("victim Wait() = %v, want ErrCanceled", werr)
	}
	if got := tenantMemory(t, rt, "audit"); got != 0 {
		t.Fatalf("after cancel-before-pickup, tenant holds %d bytes, want exactly 0", got)
	}

	// Case 2: a panicking run. The quarantine path reaches finish → release
	// like a clean run.
	pk, err := rt.Submit(context.Background(), func(c *Context) {
		panic("audit boom")
	}, WithTenant("audit"), WithMemoryBudget(1<<16))
	if err != nil {
		t.Fatalf("submit panicker: %v", err)
	}
	var pe *PanicError
	if werr := pk.Wait(); !errors.As(werr, &pe) {
		t.Fatalf("panicker Wait() = %v, want *PanicError", werr)
	}
	if got := tenantMemory(t, rt, "audit"); got != 0 {
		t.Fatalf("after panic, tenant holds %d bytes, want exactly 0", got)
	}
}

// TestSoftWatermarkShedsBestEffort: above the soft watermark best-effort
// submissions are refused with ErrAdmission while higher classes still get
// in, and the pressure counter records the shed.
func TestSoftWatermarkShedsBestEffort(t *testing.T) {
	rt := New(WithWorkers(2), WithAdmission(AdmissionConfig{SoftMemoryWatermark: 1}))
	defer rt.Shutdown()

	// Park a run inside its body so the live gauge (its running frame) is
	// above the 1-byte watermark for the duration of the test.
	started := make(chan struct{})
	release := make(chan struct{})
	blocker, err := rt.Submit(context.Background(), func(c *Context) {
		close(started)
		<-release
	})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	<-started

	if _, err := rt.Submit(context.Background(), func(c *Context) {}, WithQoS(QoSBestEffort)); !errors.Is(err, ErrAdmission) {
		t.Fatalf("best-effort submit above soft watermark: err = %v, want ErrAdmission", err)
	}
	tk, err := rt.Submit(context.Background(), func(c *Context) {}, WithQoS(QoSBatch))
	if err != nil {
		t.Fatalf("batch submit above soft watermark refused: %v", err)
	}
	close(release)
	if werr := blocker.Wait(); werr != nil {
		t.Fatalf("blocker: %v", werr)
	}
	if werr := tk.Wait(); werr != nil {
		t.Fatalf("batch run: %v", werr)
	}
	r := rt.MemReport()
	if r.PressureRejected != 1 {
		t.Fatalf("PressureRejected = %d, want 1", r.PressureRejected)
	}
	if r.SoftWatermark != 1 {
		t.Fatalf("MemReport.SoftWatermark = %d, want 1", r.SoftWatermark)
	}
}

// TestHardWatermarkShedsOverEWMARun: above the hard watermark a submission
// cancels the best-effort run whose live memory most exceeds its tenant's
// EWMA — here the only best-effort run, whose tenant has no EWMA yet.
func TestHardWatermarkShedsOverEWMARun(t *testing.T) {
	rt := New(WithWorkers(2), WithAdmission(AdmissionConfig{HardMemoryWatermark: 1}))
	defer rt.Shutdown()

	started := make(chan struct{})
	victim, err := rt.Submit(context.Background(), func(c *Context) {
		close(started)
		for !c.Cancelled() {
			time.Sleep(100 * time.Microsecond)
		}
	}, WithQoS(QoSBestEffort), WithTenant("hog"))
	if err != nil {
		t.Fatalf("submit victim: %v", err)
	}
	<-started

	tk, err := rt.Submit(context.Background(), func(c *Context) {}, WithQoS(QoSBatch))
	if err != nil {
		t.Fatalf("batch submit: %v", err)
	}
	if werr := victim.Wait(); !errors.Is(werr, ErrMemoryBudget) {
		t.Fatalf("victim Wait() = %v, want ErrMemoryBudget (hard-watermark shed)", werr)
	}
	if werr := tk.Wait(); werr != nil {
		t.Fatalf("batch run: %v", werr)
	}
	if got := rt.MemReport().BudgetCancels; got != 1 {
		t.Fatalf("BudgetCancels = %d, want 1", got)
	}
}

// TestTenantEWMAFeedsOnMeasuredPeaks: an accounted run's measured peak seeds
// its tenant's EWMA at release, and the admission layer then charges at
// least that footprint under pressure.
func TestTenantEWMAFeedsOnMeasuredPeaks(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()

	const held = int64(1 << 18)
	tk, err := rt.Submit(context.Background(), func(c *Context) {
		c.Charge(held)
		c.Refund(held)
	}, WithTenant("ewma"), WithMemoryBudget(1<<20))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if werr := tk.Wait(); werr != nil {
		t.Fatalf("Wait() = %v", werr)
	}
	var got int64
	for _, tm := range rt.MemReport().Tenants {
		if tm.Tenant == "ewma" {
			got = tm.EWMA
		}
	}
	if got < held {
		t.Fatalf("tenant EWMA = %d, want >= the measured charge %d", got, held)
	}
}

// TestMemLiveBytesGaugeSettles: the runtime-wide gauge reflects live frames
// while a run executes and settles back to zero at quiescence.
func TestMemLiveBytesGaugeSettles(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()

	started := make(chan struct{})
	release := make(chan struct{})
	tk, err := rt.Submit(context.Background(), func(c *Context) {
		close(started)
		<-release
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	if got := rt.MemLiveBytes(); got < frameMemBytes {
		t.Fatalf("gauge during run = %d, want >= one frame (%d)", got, frameMemBytes)
	}
	close(release)
	if werr := tk.Wait(); werr != nil {
		t.Fatalf("Wait() = %v", werr)
	}
	if got := rt.MemLiveBytes(); got != 0 {
		t.Fatalf("gauge at quiescence = %d, want 0", got)
	}
}

// TestRootFrameMemPeak: a run's root frame is charged to the run like any
// other frame — by the worker that picks it up, or by a serial run's strand
// — so a spawn-free run peaks at exactly one frame, budgeted or not.
func TestRootFrameMemPeak(t *testing.T) {
	modes := map[string]Option{"parallel": WithWorkers(1), "serial": WithSerialElision()}
	// "stats" is a run without options: every run is accounted.
	runs := map[string][]RunOption{"stats": nil, "budget": {WithMemoryBudget(1 << 20)}}
	for mode, opt := range modes {
		for run, ropts := range runs {
			t.Run(mode+"/"+run, func(t *testing.T) {
				rt := New(opt)
				defer rt.Shutdown()
				tk := mustSubmit(t, rt, func(*Context) {}, ropts...)
				if err := tk.Wait(); err != nil {
					t.Fatal(err)
				}
				if st := tk.Stats(); st.MemPeakBytes != frameMemBytes || st.MemLiveBytes != 0 {
					t.Fatalf("MemPeakBytes/MemLiveBytes = %d/%d, want %d/0 (one root frame)",
						st.MemPeakBytes, st.MemLiveBytes, frameMemBytes)
				}
			})
		}
	}
}

// TestQueuedCancelRootMem: a root cancelled while still queued is skipped
// at pickup, and its frame's refund matches the picker's charge — the run
// settles with no live bytes and one skipped task.
func TestQueuedCancelRootMem(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	started, release := make(chan struct{}), make(chan struct{})
	blocker := mustSubmit(t, rt, func(*Context) {
		close(started)
		<-release
	})
	<-started // the only worker is busy: the next root stays queued
	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	tk, err := rt.Submit(ctx, func(*Context) { ran = true })
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for !tk.rs.cancelled() { // the context's AfterFunc cancels asynchronously
		runtime.Gosched()
	}
	close(release)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("queued-then-cancelled Wait = %v, want ErrCanceled", err)
	}
	if ran {
		t.Fatal("cancelled root ran")
	}
	if st := tk.Stats(); st.MemLiveBytes != 0 || st.TasksSkipped != 1 {
		t.Fatalf("MemLiveBytes/TasksSkipped = %d/%d, want 0/1", st.MemLiveBytes, st.TasksSkipped)
	}
}

// TestFlatSpawnSpace pins lazy spawns' space bound on the shape that blew
// up eager child stealing: a flat loop of 10 000 spawns before one Sync.
// Eagerly, every child was a queued frame by the time the root synced —
// 10 001 live frames at the peak. Lazily, the first child is pushed and
// every later one finds the deque non-empty and runs inline, so the run's
// peak is the root, the queued child and one inline child.
//
// At P = 2 the second worker serves another computation throughout, so
// nothing is stolen from the loop. A thief would not raise the true peak
// by more than the frame it runs, but the unbudgeted peak estimator sums
// per-worker peaks, and a stolen frame is charged on the spawner and
// refunded on the thief — each steal would add one frame to the estimate.
func TestFlatSpawnSpace(t *testing.T) {
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			rt := New(WithWorkers(p))
			defer rt.Shutdown()
			if p == 2 {
				started, release := make(chan struct{}), make(chan struct{})
				other := mustSubmit(t, rt, func(*Context) {
					close(started)
					<-release
				})
				<-started
				defer func() {
					close(release)
					if err := other.Wait(); err != nil {
						t.Error(err)
					}
				}()
			}
			tk := mustSubmit(t, rt, func(c *Context) {
				for i := 0; i < 10000; i++ {
					c.Spawn(func(*Context) {})
				}
				c.Sync()
			})
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			st := tk.Stats()
			if st.Spawns != 10000 || st.TasksRun != 10000 || st.Pushed != 1 {
				t.Fatalf("Spawns/TasksRun/Pushed = %d/%d/%d, want 10000/10000/1", st.Spawns, st.TasksRun, st.Pushed)
			}
			if st.MemPeakBytes > 3*frameMemBytes || st.MemLiveBytes != 0 {
				t.Fatalf("MemPeakBytes/MemLiveBytes = %d/%d, want ≤ %d (3 frames)/0",
					st.MemPeakBytes, st.MemLiveBytes, 3*frameMemBytes)
			}
		})
	}
}
