package sched

import (
	"bytes"
	"encoding/json"
	"sync"
	"sync/atomic"
	"testing"

	"cilkgo/internal/trace"
)

// spawnCount returns the number of Spawn calls fib(n) performs: one per
// call with n >= 2.
func spawnCount(n int) int64 {
	if n < 2 {
		return 0
	}
	return 1 + spawnCount(n-1) + spawnCount(n-2)
}

func TestTracedRunEventStream(t *testing.T) {
	rt := New(WithWorkers(4), WithTracing())
	defer rt.Shutdown()
	tr := rt.Tracer()
	if tr == nil {
		t.Fatal("Tracing option did not install a tracer")
	}
	tr.Start()
	var got int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 16, &got) }).Wait(); err != nil {
		t.Fatal(err)
	}
	snap := tr.Stop()
	if got != fibSerial(16) {
		t.Fatalf("traced fib(16) = %d, want %d", got, fibSerial(16))
	}
	if len(snap.Workers) != 4 {
		t.Fatalf("trace has %d worker timelines, want 4", len(snap.Workers))
	}
	if snap.TotalDropped() != 0 {
		t.Fatalf("ring wrapped (%d dropped) — capacity too small for fib(16)", snap.TotalDropped())
	}

	s := rt.Stats()
	var taskStarts, taskEnds, spawns, steals, attempts int64
	for wid, events := range snap.Workers {
		depth := 0
		last := int64(-1)
		for _, ev := range events {
			if ev.When < last {
				t.Fatalf("worker %d: timestamps regress (%d after %d)", wid, ev.When, last)
			}
			last = ev.When
			switch ev.Kind {
			case trace.KindTaskStart:
				taskStarts++
				depth++
			case trace.KindTaskEnd:
				taskEnds++
				depth--
				if depth < 0 {
					t.Fatalf("worker %d: task-end without task-start", wid)
				}
			case trace.KindSpawn:
				spawns++
			case trace.KindStealSuccess:
				steals++
				if int(ev.Arg) == wid || ev.Arg < 0 || int(ev.Arg) >= 4 {
					t.Fatalf("worker %d stole from invalid victim %d", wid, ev.Arg)
				}
			case trace.KindStealAttempt:
				attempts++
				if int(ev.Arg) == wid {
					t.Fatalf("worker %d probed itself", wid)
				}
			}
		}
		if depth != 0 {
			t.Fatalf("worker %d: %d tasks still open after Wait returned", wid, depth)
		}
	}
	if taskStarts != taskEnds {
		t.Errorf("task starts %d != ends %d", taskStarts, taskEnds)
	}
	// Every spawned task plus the injected root ran under the trace.
	if want := s.TasksRun + 1; taskStarts != want {
		t.Errorf("trace has %d task-starts, stats say %d", taskStarts, want)
	}
	if spawns != s.Spawns {
		t.Errorf("trace has %d spawn events, stats say %d", spawns, s.Spawns)
	}
	if steals != s.Steals {
		t.Errorf("trace has %d steal events, stats say %d", steals, s.Steals)
	}
	// Workers also probe outside the Start/Stop window (before the run is
	// injected, after it drains), so the trace can only bound the stat.
	if attempts > s.StealAttempts {
		t.Errorf("trace has %d steal-attempt events, stats say only %d", attempts, s.StealAttempts)
	}
	if steals > attempts {
		t.Errorf("trace has %d steal successes but only %d attempts", steals, attempts)
	}

	// The derived profile agrees with the raw counts.
	p := trace.BuildProfile(snap, 20)
	var pTasks int64
	for _, w := range p.Workers {
		pTasks += w.Tasks
	}
	if pTasks != taskStarts {
		t.Errorf("profile counts %d tasks, trace has %d", pTasks, taskStarts)
	}
	if p.MaxLiveFrames < 1 {
		t.Errorf("live-frame high water = %d, want >= 1", p.MaxLiveFrames)
	}

	// And the Chrome export of a real run is valid JSON.
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, snap); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if _, ok := decoded["traceEvents"]; !ok {
		t.Fatal("chrome export lacks traceEvents")
	}
}

func TestTracerDisabledByDefault(t *testing.T) {
	rt := New(WithWorkers(2), WithTracing())
	defer rt.Shutdown()
	var got int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 10, &got) }).Wait(); err != nil {
		t.Fatal(err)
	}
	snap := rt.Tracer().Stop()
	if snap.Events() != 0 {
		t.Fatalf("tracer recorded %d events without Start", snap.Events())
	}
}

func TestNoTracerWithoutOption(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	if rt.Tracer() != nil {
		t.Fatal("runtime has a tracer without the Tracing option")
	}
	var got int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 10, &got) }).Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestTracingRequiresParallel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(WithSerialElision(), WithTracing()) did not panic")
		}
	}()
	New(WithSerialElision(), WithTracing())
}

func TestTraceRunIDsDistinguishConcurrentRuns(t *testing.T) {
	rt := New(WithWorkers(4), WithTracing())
	defer rt.Shutdown()
	tr := rt.Tracer()
	tr.Start()
	var got [3]int64
	var tks []*Ticket
	for i := range got {
		tks = append(tks, mustSubmit(t, rt, func(c *Context) { fib(c, 12, &got[i]) }))
	}
	for _, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Error(err)
		}
	}
	snap := tr.Stop()
	runs := map[int64]bool{}
	for _, events := range snap.Workers {
		for _, ev := range events {
			if ev.Kind == trace.KindTaskStart {
				runs[ev.Run] = true
			}
		}
	}
	if len(runs) != 3 {
		t.Fatalf("trace task-start events carry %d distinct run ids, want 3 (%v)", len(runs), runs)
	}
}

func TestRunWithStatsExactCounts(t *testing.T) {
	const n = 14
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	var got int64
	tk := mustSubmit(t, rt, func(c *Context) { fib(c, n, &got) })
	s, err := tk.Stats(), tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	want := spawnCount(n)
	if s.Spawns != want {
		t.Errorf("per-run Spawns = %d, want %d", s.Spawns, want)
	}
	if s.TasksRun != want {
		t.Errorf("per-run TasksRun = %d, want %d (== Spawns)", s.TasksRun, want)
	}
	if s.Steals > s.TasksRun {
		t.Errorf("per-run Steals = %d > TasksRun = %d", s.Steals, s.TasksRun)
	}
	if s.MaxDepth != n-1 {
		t.Errorf("per-run MaxDepth = %d, want %d", s.MaxDepth, n-1)
	}
	if s.MaxLiveFrames < 1 {
		t.Errorf("per-run MaxLiveFrames = %d, want >= 1", s.MaxLiveFrames)
	}
}

// TestRunWithStatsConcurrentRunsToldApart is the point of per-run
// accounting: two different-sized computations share the workers, yet each
// snapshot reports exactly its own spawns.
func TestRunWithStatsConcurrentRunsToldApart(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	sizes := []int{12, 16}
	got := make([]int64, len(sizes))
	stats := make([]Stats, len(sizes))
	var tks []*Ticket
	for i, n := range sizes {
		tks = append(tks, mustSubmit(t, rt, func(c *Context) { fib(c, n, &got[i]) }))
	}
	for i, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		stats[i] = tk.Stats()
	}
	for i, n := range sizes {
		if want := spawnCount(n); stats[i].Spawns != want {
			t.Errorf("run fib(%d): Spawns = %d, want %d (leaked counts from the concurrent run?)",
				n, stats[i].Spawns, want)
		}
		if stats[i].TasksRun != stats[i].Spawns {
			t.Errorf("run fib(%d): TasksRun %d != Spawns %d", n, stats[i].TasksRun, stats[i].Spawns)
		}
	}
}

func TestRunWithStatsSerialElision(t *testing.T) {
	const n = 12
	rt := New(WithSerialElision())
	var got int64
	tk := mustSubmit(t, rt, func(c *Context) { fib(c, n, &got) })
	s, err := tk.Stats(), tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := spawnCount(n); s.Spawns != want || s.TasksRun != want {
		t.Errorf("serial per-run Spawns/TasksRun = %d/%d, want %d", s.Spawns, s.TasksRun, want)
	}
	if s.MaxDepth != n-1 {
		t.Errorf("serial per-run MaxDepth = %d, want %d", s.MaxDepth, n-1)
	}
}

// TestStatsInvariants pins the documented global invariants after Wait
// returns: every spawned task ran, and steals never exceed attempts.
func TestStatsInvariants(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	for i := 0; i < 3; i++ {
		var got int64
		if err := mustSubmit(t, rt, func(c *Context) { fib(c, 15, &got) }).Wait(); err != nil {
			t.Fatal(err)
		}
		s := rt.Stats()
		if s.TasksRun != s.Spawns {
			t.Fatalf("after Wait: TasksRun = %d != Spawns = %d", s.TasksRun, s.Spawns)
		}
		if s.Steals > s.StealAttempts {
			t.Fatalf("Steals = %d > StealAttempts = %d", s.Steals, s.StealAttempts)
		}
	}
}

func TestStatsSub(t *testing.T) {
	rt := New(WithWorkers(2))
	defer rt.Shutdown()
	var got int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 12, &got) }).Wait(); err != nil {
		t.Fatal(err)
	}
	before := rt.Stats()
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 12, &got) }).Wait(); err != nil {
		t.Fatal(err)
	}
	d := rt.Stats().Sub(before)
	if want := spawnCount(12); d.Spawns != want {
		t.Errorf("delta Spawns = %d, want %d", d.Spawns, want)
	}
	if d.TasksRun != d.Spawns {
		t.Errorf("delta TasksRun = %d != delta Spawns = %d", d.TasksRun, d.Spawns)
	}
	if d.Steals > d.StealAttempts {
		t.Errorf("delta Steals %d > delta StealAttempts %d", d.Steals, d.StealAttempts)
	}
	// Max gauges are watermarks: Sub keeps the newer snapshot's values.
	if d.MaxDepth != rt.Stats().MaxDepth {
		t.Errorf("Sub changed MaxDepth: %d", d.MaxDepth)
	}
}

// TestMaxStoreNeverRegresses hammers one gauge from many goroutines; the
// CAS loop must end at the global maximum.
func TestMaxStoreNeverRegresses(t *testing.T) {
	var m atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := int64(0); v < 10000; v++ {
				maxStore(&m, v*int64(g+1)%9973)
			}
		}(g)
	}
	wg.Wait()
	if got := m.Load(); got != 9972 {
		t.Fatalf("maxStore converged to %d, want 9972", got)
	}
}

func TestMetrics(t *testing.T) {
	rt := New(WithWorkers(2), WithTracing())
	defer rt.Shutdown()
	var got int64
	if err := mustSubmit(t, rt, func(c *Context) { fib(c, 12, &got) }).Wait(); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	s := rt.Stats()
	if m["workers"] != 2 {
		t.Errorf("metrics workers = %d, want 2", m["workers"])
	}
	if m["spawns"] != s.Spawns || m["tasks_run"] != s.TasksRun {
		t.Errorf("metrics spawns/tasks_run = %d/%d, stats say %d/%d",
			m["spawns"], m["tasks_run"], s.Spawns, s.TasksRun)
	}
	if m["runs_submitted"] != 1 {
		t.Errorf("runs_submitted = %d, want 1", m["runs_submitted"])
	}
	if m["trace_enabled"] != 0 {
		t.Errorf("trace_enabled = %d, want 0", m["trace_enabled"])
	}
	var perWorker int64
	for i := 0; i < 2; i++ {
		key := "worker." + string(rune('0'+i)) + ".spawns"
		v, ok := m[key]
		if !ok {
			t.Fatalf("metrics missing %q", key)
		}
		perWorker += v
	}
	if perWorker != s.Spawns {
		t.Errorf("per-worker spawns sum to %d, aggregate is %d", perWorker, s.Spawns)
	}
}
