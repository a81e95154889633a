package sched

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// laneTask builds a bare root task for queue unit tests — no runtime, just
// the frame.run fields push/pop read.
func laneTask(cls QoSClass, prio int) *task {
	rs := &runState{qos: cls, prio: prio}
	return &task{fn: func(*Context) {}, frame: &frame{run: rs}}
}

func TestParseQoS(t *testing.T) {
	cases := []struct {
		in   string
		want QoSClass
		ok   bool
	}{
		{"interactive", QoSInteractive, true},
		{"batch", QoSBatch, true},
		{"best-effort", QoSBestEffort, true},
		{"bulk", QoSBatch, false},
		{"", QoSBatch, false},
	}
	for _, c := range cases {
		got, ok := ParseQoS(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseQoS(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	if s := QoSClass(9).String(); s != "invalid" {
		t.Errorf("QoSClass(9).String() = %q", s)
	}
}

// TestLaneDRRWeights: with every class backlogged, each full DRR rotor cycle
// serves exactly weight pops per class, so service converges to 8:4:1.
func TestLaneDRRWeights(t *testing.T) {
	l := &injectLane{}
	const perClass = 64
	for i := 0; i < perClass; i++ {
		for c := 0; c < numQoS; c++ {
			l.push(laneTask(QoSClass(c), 0), QoSClass(c), 0)
		}
	}
	cycle := 0
	for c := 0; c < numQoS; c++ {
		cycle += qosWeights[c]
	}
	// Pop one full cycle at a time while all classes still hold backlog and
	// check the per-class counts match the weights exactly.
	cycles := (perClass / qosWeights[QoSInteractive]) - 1
	for cy := 0; cy < cycles; cy++ {
		var got [numQoS]int
		for i := 0; i < cycle; i++ {
			tk := l.pop()
			if tk == nil {
				t.Fatalf("cycle %d: queue ran dry after %d pops", cy, i)
			}
			got[tk.frame.run.qos]++
		}
		if got != qosWeights {
			t.Fatalf("cycle %d: service %v, want weights %v", cy, got, qosWeights)
		}
	}
}

// TestLanePriorityWithinClass: higher priorities pop first within one class;
// equal priorities keep arrival order; priority never crosses classes.
func TestLanePriorityWithinClass(t *testing.T) {
	l := &injectLane{}
	a := laneTask(QoSBatch, 0)
	b := laneTask(QoSBatch, 5)
	c := laneTask(QoSBatch, 5)
	d := laneTask(QoSBatch, 1)
	for _, tk := range []*task{a, b, c, d} {
		l.push(tk, QoSBatch, tk.frame.run.prio)
	}
	want := []*task{b, c, d, a} // prio 5 (arrival order), 1, 0
	for i, w := range want {
		if got := l.pop(); got != w {
			t.Fatalf("pop %d: got prio %d, want prio %d", i, got.frame.run.prio, w.frame.run.prio)
		}
	}
	if l.pop() != nil {
		t.Fatal("queue not empty after draining")
	}
}

// TestLaneEmptyClassForfeitsDeficit: a class visited while empty resets its
// deficit, so an idle class cannot bank credit and burst later. After the
// interactive queue sat empty through many rotor cycles, a freshly-pushed
// interactive root still only gets its normal weight-8 share per cycle.
func TestLaneEmptyClassForfeitsDeficit(t *testing.T) {
	l := &injectLane{}
	for i := 0; i < 40; i++ {
		l.push(laneTask(QoSBestEffort, 0), QoSBestEffort, 0)
	}
	for i := 0; i < 20; i++ {
		if tk := l.pop(); tk == nil || tk.frame.run.qos != QoSBestEffort {
			t.Fatalf("pop %d: %v", i, tk)
		}
		if l.deficit[QoSInteractive] != 0 {
			t.Fatalf("idle interactive class banked deficit %d", l.deficit[QoSInteractive])
		}
	}
	// Now backlog interactive too: each full cycle serves at most weight-8
	// interactive pops — no banked burst from the idle stretch.
	for i := 0; i < 20; i++ {
		l.push(laneTask(QoSInteractive, 0), QoSInteractive, 0)
	}
	inARow := 0
	for {
		tk := l.pop()
		if tk == nil {
			break
		}
		if tk.frame.run.qos == QoSInteractive {
			inARow++
			if inARow > qosWeights[QoSInteractive] {
				t.Fatalf("interactive served %d in a row, weight is %d", inARow, qosWeights[QoSInteractive])
			}
		} else {
			inARow = 0
		}
	}
}

// TestInteractiveNotStarvedByFlood: end-to-end DRR. One worker, the queue
// pre-loaded with a deep best-effort backlog; an interactive submission must
// be picked up within the first DRR cycle or two, not after the flood.
func TestInteractiveNotStarvedByFlood(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()

	// Block the only worker so submissions pile up in the queue.
	gate := make(chan struct{})
	blocker, err := rt.Submit(context.Background(), func(*Context) { <-gate })
	if err != nil {
		t.Fatal(err)
	}

	const flood = 200
	var finished atomic.Int64
	var tickets []*Ticket
	for i := 0; i < flood; i++ {
		tk, err := rt.Submit(context.Background(),
			func(*Context) { finished.Add(1) },
			WithQoS(QoSBestEffort), WithTenant("flood"))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	var interactivePos atomic.Int64
	itk, err := rt.Submit(context.Background(),
		func(*Context) { interactivePos.Store(finished.Add(1)) },
		WithQoS(QoSInteractive), WithTenant("ui"))
	if err != nil {
		t.Fatal(err)
	}

	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := itk.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The queue's rotor serves at most weight(batch)+weight(best-effort)
	// pops before reaching the interactive class again; allow slack for where
	// the rotor happened to sit, but the flood must not drain first.
	if pos := interactivePos.Load(); pos > 16 {
		t.Fatalf("interactive root finished at position %d of %d — starved by best-effort flood", pos, flood+1)
	}
	if lat := itk.QueueLatency(); lat <= 0 {
		t.Fatalf("interactive QueueLatency = %v, want > 0 after queued pickup", lat)
	}
}

// drainOnOneWorker queues flood roots submitted with floodOpts and then one
// probe root submitted with probeOpts on a two-worker runtime whose workers
// are both held in roots gated by c.WorkerID(), then frees only worker 0, so
// one worker drains the whole queue while the other stays busy. It returns
// the probe's 1-based finish position among the flood+1 queued roots.
func drainOnOneWorker(t *testing.T, flood int, floodOpts, probeOpts []RunOption) int64 {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	gates := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var holding sync.WaitGroup
	holding.Add(len(gates))
	var holders []*Ticket
	for range gates {
		holders = append(holders, mustSubmit(t, rt, func(c *Context) {
			holding.Done()
			<-gates[c.WorkerID()]
		}))
	}
	holding.Wait()

	var finished, probePos atomic.Int64
	tks := make([]*Ticket, 0, flood+1)
	for i := 0; i < flood; i++ {
		tks = append(tks, mustSubmit(t, rt, func(*Context) { finished.Add(1) }, floodOpts...))
	}
	tks = append(tks, mustSubmit(t, rt, func(*Context) { probePos.Store(finished.Add(1)) }, probeOpts...))
	// t.Error, not t.Fatal, until gates[1] is closed: the deferred Shutdown
	// would otherwise wait forever on worker 1's held root.
	close(gates[0])
	for _, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Error(err)
		}
	}
	close(gates[1])
	for _, tk := range holders {
		if err := tk.Wait(); err != nil {
			t.Error(err)
		}
	}
	return probePos.Load()
}

// TestInteractiveNotStarvedAcrossWorkers: DRR holds across workers, not only
// within one. The tenants are examples/serve's demo pair, and whichever
// worker drains the queue must reach the interactive root within a DRR
// cycle or two of the best-effort flood.
func TestInteractiveNotStarvedAcrossWorkers(t *testing.T) {
	const flood = 200
	pos := drainOnOneWorker(t, flood,
		[]RunOption{WithQoS(QoSBestEffort), WithTenant("free")},
		[]RunOption{WithQoS(QoSInteractive), WithTenant("pro")})
	if pos > 16 {
		t.Fatalf("interactive root finished at position %d of %d — starved by a best-effort flood on another worker's share", pos, flood+1)
	}
}

// TestHighPriorityNotStarvedAcrossWorkers: WithPriority orders a class's
// roots across workers too — the priority-10 root runs before every queued
// default-priority root of its class, whichever worker picks it up.
func TestHighPriorityNotStarvedAcrossWorkers(t *testing.T) {
	const flood = 50
	pos := drainOnOneWorker(t, flood,
		[]RunOption{WithTenant("free")},
		[]RunOption{WithTenant("pro"), WithPriority(10)})
	if pos != 1 {
		t.Fatalf("priority-10 root finished at position %d of %d, want 1", pos, flood+1)
	}
}

// TestQueueLatencyWhileInFlight: QueueLatency may be read while the root is
// being picked up (the race detector checks the pickup timestamp's
// publication), and it reads 0 until pickup and the final wait after.
func TestQueueLatencyWhileInFlight(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	const n = 200
	tks := make([]*Ticket, n)
	early := make([]time.Duration, n)
	for i := range tks {
		tks[i] = mustSubmit(t, rt, func(*Context) {})
		early[i] = tks[i].QueueLatency()
	}
	for i, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		if late := tk.QueueLatency(); early[i] != 0 && early[i] != late {
			t.Fatalf("root %d: QueueLatency read %v in flight and %v after Wait", i, early[i], late)
		}
	}
}

// TestQueuedByClassGauge: Metrics and LoadReport count queued roots per
// class while they wait, and report zero once the queue drains.
func TestQueuedByClassGauge(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	gate := make(chan struct{})
	blocker := mustSubmit(t, rt, func(*Context) { <-gate })
	waitPicked(t, rt, blocker)
	var tks []*Ticket
	for i := 0; i < 3; i++ {
		tks = append(tks, mustSubmit(t, rt, func(*Context) {}, WithQoS(QoSBestEffort)))
	}
	if n := rt.Metrics()["queued_best_effort"]; n != 3 {
		t.Fatalf("Metrics queued_best_effort = %d, want 3", n)
	}
	lr := rt.LoadReport()
	if n := lr.QueuedByClass["best-effort"]; n != 3 || lr.Queued != 3 {
		t.Fatalf("LoadReport Queued = %d, QueuedByClass[best-effort] = %d, want 3 and 3", lr.Queued, n)
	}
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	m, lr := rt.Metrics(), rt.LoadReport()
	for c := QoSClass(0); c < numQoS; c++ {
		key := "queued_" + strings.ReplaceAll(c.String(), "-", "_")
		if m[key] != 0 || lr.QueuedByClass[c.String()] != 0 {
			t.Fatalf("%v after drain: Metrics %s = %d, LoadReport = %d, want 0", c, key, m[key], lr.QueuedByClass[c.String()])
		}
	}
	if lr.Queued != 0 || m["inject_queued"] != 0 {
		t.Fatalf("after drain: LoadReport.Queued = %d, inject_queued = %d, want 0", lr.Queued, m["inject_queued"])
	}
}
