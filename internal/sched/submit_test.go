package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSubmitSentinels: Submit reports submission-time failures itself, and
// run-time failures through the Ticket.
func TestSubmitSentinels(t *testing.T) {
	t.Run("pre-canceled context", func(t *testing.T) {
		rt := New(WithWorkers(2))
		defer rt.Shutdown()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := rt.Submit(ctx, func(*Context) {}); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit(canceled ctx) = %v, want ErrCanceled", err)
		}
	})
	t.Run("expired deadline", func(t *testing.T) {
		rt := New(WithWorkers(2))
		defer rt.Shutdown()
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if _, err := rt.Submit(ctx, func(*Context) {}); !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Submit(expired ctx) = %v, want ErrDeadlineExceeded", err)
		}
	})
	t.Run("cancel in flight", func(t *testing.T) {
		rt := New(WithWorkers(2))
		defer rt.Shutdown()
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		tk, err := rt.Submit(ctx, func(c *Context) {
			close(started)
			for !c.Cancelled() {
				time.Sleep(time.Millisecond)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		cancel()
		if err := tk.Wait(); !errors.Is(err, ErrCanceled) {
			t.Fatalf("Wait after cancel = %v, want ErrCanceled", err)
		}
	})
	t.Run("time budget", func(t *testing.T) {
		rt := New(WithWorkers(2))
		defer rt.Shutdown()
		tk, err := rt.Submit(context.Background(), func(c *Context) {
			for !c.Cancelled() {
				time.Sleep(time.Millisecond)
			}
		}, WithTimeBudget(20*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if err := tk.Wait(); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("Wait after time budget = %v, want ErrDeadlineExceeded", err)
		}
	})
	t.Run("submit after shutdown", func(t *testing.T) {
		rt := New(WithWorkers(2))
		rt.Shutdown()
		if _, err := rt.Submit(context.Background(), func(*Context) {}); !errors.Is(err, ErrShutdown) {
			t.Fatalf("Submit after Shutdown = %v, want ErrShutdown", err)
		}
	})
	t.Run("shutdown drain abandons in-flight", func(t *testing.T) {
		rt := New(WithWorkers(2))
		started := make(chan struct{})
		var once sync.Once
		tk, err := rt.Submit(context.Background(), func(c *Context) {
			once.Do(func() { close(started) })
			for !c.Cancelled() {
				time.Sleep(time.Millisecond)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		<-started
		if clean := rt.ShutdownDrain(0); clean {
			t.Fatal("ShutdownDrain(0) reported clean with a run in flight")
		}
		if err := tk.Wait(); !errors.Is(err, ErrShutdown) {
			t.Fatalf("Wait after ShutdownDrain = %v, want ErrShutdown", err)
		}
	})
}

// TestSubmitSerialElision: under WithSerialElision, Submit completes the run
// inline and the returned Ticket is already settled.
func TestSubmitSerialElision(t *testing.T) {
	rt := New(WithSerialElision())
	var got int64
	tk, err := rt.Submit(context.Background(), func(c *Context) { fib(c, 15, &got) })
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.Done():
	default:
		t.Fatal("serial-elision Ticket not settled at Submit return")
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if want := fibSerial(15); got != want {
		t.Fatalf("fib(15) = %d, want %d", got, want)
	}
	if st := tk.Stats(); st.Spawns == 0 {
		t.Fatalf("serial-elision Stats.Spawns = 0, want > 0: %+v", st)
	}
	if lat := tk.QueueLatency(); lat != 0 {
		t.Fatalf("serial-elision QueueLatency = %v, want 0", lat)
	}
}

// TestQueueLatencySerialElision pins the QueueLatency contract from its doc:
// serial elision has no injection queue, so the latency is exactly 0 — before
// and after Wait — while a parallel submission reports a non-negative wait
// once picked up. Also pins the clock-anomaly clamp: pickedNs earlier than
// enqNs must report 0, never a negative duration.
func TestQueueLatencySerialElision(t *testing.T) {
	srt := New(WithSerialElision())
	tk, err := srt.Submit(context.Background(), func(c *Context) {
		c.Spawn(func(*Context) {})
		c.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat := tk.QueueLatency(); lat != 0 {
		t.Fatalf("serial-elision QueueLatency = %v, want exactly 0", lat)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if lat := tk.QueueLatency(); lat != 0 {
		t.Fatalf("serial-elision QueueLatency after Wait = %v, want exactly 0", lat)
	}

	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	ptk, err := rt.Submit(context.Background(), func(*Context) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := ptk.Wait(); err != nil {
		t.Fatal(err)
	}
	if lat := ptk.QueueLatency(); lat < 0 {
		t.Fatalf("parallel QueueLatency = %v, want >= 0", lat)
	}

	// Clock anomaly: pickup timestamped before enqueue must clamp to 0.
	rs := &runState{enqNs: 100}
	rs.pickedNs.Store(50)
	if lat := rs.queueLatency(); lat != 0 {
		t.Fatalf("queueLatency with pickedNs < enqNs = %v, want 0", lat)
	}
}

// TestTicketAccessors: identity fields round-trip from the submission
// options, and Err is non-blocking.
func TestTicketAccessors(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	gate := make(chan struct{})
	tk, err := rt.Submit(context.Background(), func(*Context) { <-gate },
		WithTenant("acme"), WithQoS(QoSInteractive), WithPriority(3))
	if err != nil {
		t.Fatal(err)
	}
	if tk.Tenant() != "acme" || tk.Class() != QoSInteractive {
		t.Fatalf("Tenant/Class = %q/%v", tk.Tenant(), tk.Class())
	}
	if tk.ID() == 0 {
		t.Fatal("ID = 0")
	}
	if err := tk.Err(); err != nil {
		t.Fatalf("Err while in flight = %v, want nil", err)
	}
	close(gate)
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Err(); err != nil {
		t.Fatalf("Err after clean finish = %v", err)
	}
}

// TestAdmissionGlobalLimits: runtime-wide MaxQueued/MaxActive/MaxMemory
// reject with ErrAdmission; capacity frees as runs finish.
func TestAdmissionGlobalLimits(t *testing.T) {
	t.Run("max queued", func(t *testing.T) {
		rt := New(WithWorkers(1), WithAdmission(AdmissionConfig{MaxQueued: 2}))
		defer rt.Shutdown()
		gate := make(chan struct{})
		blocker, err := rt.Submit(context.Background(), func(*Context) { <-gate })
		if err != nil {
			t.Fatal(err)
		}
		// The blocker was picked up; two more fill the queue.
		waitPicked(t, rt, blocker)
		var tks []*Ticket
		for i := 0; i < 2; i++ {
			tk, err := rt.Submit(context.Background(), func(*Context) {})
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			tks = append(tks, tk)
		}
		if _, err := rt.Submit(context.Background(), func(*Context) {}); !errors.Is(err, ErrAdmission) {
			t.Fatalf("over-queue Submit = %v, want ErrAdmission", err)
		}
		close(gate)
		for _, tk := range append(tks, blocker) {
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		// Capacity is back.
		tk, err := rt.Submit(context.Background(), func(*Context) {})
		if err != nil {
			t.Fatalf("Submit after drain: %v", err)
		}
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("max memory", func(t *testing.T) {
		rt := New(WithWorkers(1), WithAdmission(AdmissionConfig{MaxMemory: 1 << 20}))
		defer rt.Shutdown()
		gate := make(chan struct{})
		tk, err := rt.Submit(context.Background(), func(*Context) { <-gate }, WithMemoryBudget(1<<19))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rt.Submit(context.Background(), func(*Context) {}, WithMemoryBudget(1<<20)); !errors.Is(err, ErrAdmission) {
			t.Fatalf("over-memory Submit = %v, want ErrAdmission", err)
		}
		close(gate)
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTenantQuota: per-tenant quotas reject one tenant with ErrQuota while
// other tenants keep being admitted.
func TestTenantQuota(t *testing.T) {
	rt := New(WithWorkers(1), WithAdmission(AdmissionConfig{
		Tenants: map[string]Quota{"free": {MaxActive: 1}},
	}))
	defer rt.Shutdown()
	gate := make(chan struct{})
	free1, err := rt.Submit(context.Background(), func(*Context) { <-gate }, WithTenant("free"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(context.Background(), func(*Context) {}, WithTenant("free")); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota Submit = %v, want ErrQuota", err)
	}
	pro, err := rt.Submit(context.Background(), func(*Context) {}, WithTenant("pro"))
	if err != nil {
		t.Fatalf("pro tenant rejected alongside free's quota: %v", err)
	}
	close(gate)
	if err := free1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := pro.Wait(); err != nil {
		t.Fatal(err)
	}
	// free's slot is back.
	tk, err := rt.Submit(context.Background(), func(*Context) {}, WithTenant("free"))
	if err != nil {
		t.Fatalf("free tenant still over quota after drain: %v", err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
}

// waitPicked blocks until rs has transitioned queued→running (the worker
// picked its root up), so tests can build exact queue occupancy.
func waitPicked(t *testing.T, rt *Runtime, tk *Ticket) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rt.adm.mu.Lock()
		picked := tk.rs.picked
		rt.adm.mu.Unlock()
		if picked {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatal("root never picked up")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoadReport: the backpressure snapshot tracks queued/running/admission
// outcomes and per-tenant load, and drains back to zero.
func TestLoadReport(t *testing.T) {
	rt := New(WithWorkers(1), WithAdmission(AdmissionConfig{
		Tenants: map[string]Quota{"free": {MaxQueued: 1}},
	}))
	defer rt.Shutdown()
	gate := make(chan struct{})
	blocker, err := rt.Submit(context.Background(), func(*Context) { <-gate }, WithTenant("pro"), WithQoS(QoSInteractive))
	if err != nil {
		t.Fatal(err)
	}
	waitPicked(t, rt, blocker)
	queued, err := rt.Submit(context.Background(), func(*Context) {}, WithTenant("free"), WithQoS(QoSBestEffort), WithMemoryBudget(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Submit(context.Background(), func(*Context) {}, WithTenant("free")); !errors.Is(err, ErrQuota) {
		t.Fatalf("want ErrQuota, got %v", err)
	}

	r := rt.LoadReport()
	if r.Workers != 1 {
		t.Fatalf("Workers = %d", r.Workers)
	}
	if r.Running != 1 || r.Queued != 1 {
		t.Fatalf("Running/Queued = %d/%d, want 1/1", r.Running, r.Queued)
	}
	if n := r.QueuedByClass["best-effort"]; n != 1 {
		t.Fatalf("QueuedByClass[best-effort] = %d, want 1", n)
	}
	if r.Admitted != 2 || r.RejectedQuota != 1 || r.RejectedLoad != 0 {
		t.Fatalf("Admitted/RejectedQuota/RejectedLoad = %d/%d/%d", r.Admitted, r.RejectedQuota, r.RejectedLoad)
	}
	if len(r.Tenants) != 2 || r.Tenants[0].Tenant != "free" || r.Tenants[1].Tenant != "pro" {
		t.Fatalf("Tenants = %+v, want [free pro] sorted", r.Tenants)
	}
	free := r.Tenants[0]
	if free.Queued != 1 || free.Memory != 512 || free.Rejected != 1 {
		t.Fatalf("free tenant load = %+v", free)
	}

	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := queued.Wait(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		r = rt.LoadReport()
		if r.Queued == 0 && r.Running == 0 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("load never drained: %+v", r)
		}
		time.Sleep(time.Millisecond)
	}
	for _, ts := range r.Tenants {
		if ts.Queued != 0 || ts.Running != 0 || ts.Memory != 0 {
			t.Fatalf("tenant %q load not released: %+v", ts.Tenant, ts)
		}
	}
}

// TestSubmitFireAndForget: tickets that are never awaited still release
// their admission reservations — release is owned by the finishing worker,
// not by Wait.
func TestSubmitFireAndForget(t *testing.T) {
	rt := New(WithWorkers(2), WithAdmission(AdmissionConfig{MaxActive: 4}))
	defer rt.Shutdown()
	for i := 0; i < 64; i++ {
		tk, err := rt.Submit(context.Background(), func(*Context) {})
		if err != nil {
			// Transient capacity rejections are fine — they must clear.
			if !errors.Is(err, ErrAdmission) {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		_ = tk // deliberately not awaited
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r := rt.LoadReport()
		if r.Queued == 0 && r.Running == 0 {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("fire-and-forget runs never released: %+v", r)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitConcurrent: many goroutines submitting across classes and
// tenants at once; every ticket completes exactly once with a correct
// result. Primarily a -race exercise of the submission path.
func TestSubmitConcurrent(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	const G, per = 8, 16
	var wg sync.WaitGroup
	errs := make(chan error, G*per)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var got int64
				tk, err := rt.Submit(context.Background(),
					func(c *Context) { fib(c, 10, &got) },
					WithQoS(QoSClass(i%numQoS)), WithTenant(fmt.Sprintf("t%d", g%3)), WithPriority(i%4))
				if err != nil {
					errs <- err
					continue
				}
				if err := tk.Wait(); err != nil {
					errs <- err
				} else if got != fibSerial(10) {
					errs <- fmt.Errorf("fib(10) = %d", got)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSerialElisionConcurrentSubmits: serial runs submitted concurrently to
// one serial runtime stay independent — each executes on a strand worker of
// its own — so every run's result and per-run counts are exact, every run
// settles with no live bytes, and no goroutine outlives the runs even
// without a Shutdown (race.Check and cilkview.Measure never call one).
func TestSerialElisionConcurrentSubmits(t *testing.T) {
	const (
		submitters = 8
		runs       = 20
		n          = 12
	)
	before := runtime.NumGoroutine()
	rt := New(WithSerialElision())
	errs := make(chan error, submitters*runs)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				var got int64
				tk, err := rt.Submit(context.Background(), func(c *Context) { fib(c, n, &got) })
				if err != nil {
					errs <- err
					continue
				}
				if err := tk.Wait(); err != nil {
					errs <- err
					continue
				}
				st := tk.Stats()
				switch want := spawnCount(n); {
				case got != fibSerial(n):
					errs <- fmt.Errorf("fib(%d) = %d, want %d", n, got, fibSerial(n))
				case st.Spawns != want || st.TasksRun != want || st.MaxDepth != n-1:
					errs <- fmt.Errorf("Spawns/TasksRun/MaxDepth = %d/%d/%d, want %d/%d/%d",
						st.Spawns, st.TasksRun, st.MaxDepth, want, want, n-1)
				case st.MemLiveBytes != 0:
					errs <- fmt.Errorf("MemLiveBytes = %d after Wait, want 0", st.MemLiveBytes)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The submitters have returned from wg.Done but may not have exited yet;
	// give them until the deadline to go.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the runs, %d after (no Shutdown called)", before, after)
	}
}
