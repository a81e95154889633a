package sched

// This file wires the scheduler sanitizer (internal/schedsan) into the
// runtime: fault-injection lanes at every protocol decision point, the
// continuous invariant checker, and the stall watchdog. The design follows
// the tracer's gating discipline — everything hangs off nil-checked pointers
// resolved at New, so a runtime built without WithSanitize pays one pointer
// test per gated site and the owner's deque hot path (PushBottom/PopBottom)
// is not gated at all.
//
// Division of labour: schedsan owns the fault model (plans, rules, seeded
// lanes, shrinking); this file owns the injection sites, the invariant
// definitions, and the watchdog loop; internal/deque owns its own Gate seam
// so the deque package never imports the scheduler.

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"cilkgo/internal/deque"
	"cilkgo/internal/schedsan"
)

// WithSanitize arms the scheduler sanitizer: the fault plan in o is injected
// at the runtime's protocol decision points, o.Invariants enables the
// continuous invariant checker, and o.StallAfter enables the stall watchdog.
// Sanitizing observes the parallel schedule and therefore requires a
// parallel runtime; New panics if combined with WithSerialElision.
func WithSanitize(o schedsan.Options) Option {
	return func(c *config) { c.sanitize = &o }
}

// Worker states for the watchdog. The worker publishes rare transitions
// (task start/end, park/unpark) so the watchdog can tell a long-running
// user chunk (stateRunning — never a stall) from a fleet of workers all
// hunting or parked while work is outstanding (a stall).
const (
	stateRunning int32 = iota
	stateHunting
	stateParked
)

var stateNames = [...]string{"running", "hunting", "parked"}

// sanState is the per-runtime sanitizer: the compiled injector, the shared
// producer lane (wake sites have no worker identity), watchdog lifecycle,
// and the latest findings.
type sanState struct {
	opts schedsan.Options
	inj  *schedsan.Injector
	// lane serves producer call sites that are not bound to one worker
	// goroutine (wake can be invoked from any Run caller's strand).
	lane *schedsan.Lane

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu            sync.Mutex
	lastStall     *schedsan.Report
	lastViolation *schedsan.Report
	violations    int64
}

// newSanState compiles the options and wires the lanes and deque gates into
// the (not yet started) workers.
func newSanState(rt *Runtime, o schedsan.Options) *sanState {
	if o.TraceTail <= 0 {
		o.TraceTail = 16
	}
	s := &sanState{opts: o, inj: schedsan.NewInjector(o.Plan), stop: make(chan struct{})}
	s.lane = s.inj.Lane(len(rt.workers))
	for _, w := range rt.workers {
		w.san = s.inj.Lane(w.id)
		w.watch = o.StallAfter > 0
		// The zero state word is stateRunning; a worker is hunting until its
		// first task, and the watchdog must not mistake it for user code.
		w.state.Store(stateHunting)
		w.deque.SetGate(dequeGate{w.san})
	}
	return s
}

// start launches the watchdog, if configured. Called after the workers.
func (s *sanState) start(rt *Runtime) {
	if s.opts.StallAfter <= 0 {
		return
	}
	s.wg.Add(1)
	go s.watchdog(rt)
}

// shut stops the watchdog. Idempotent; safe when no watchdog was started.
func (s *sanState) shut() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// dequeGate adapts a schedsan lane to the deque's Gate seam.
type dequeGate struct{ lane *schedsan.Lane }

// GateSteal is the deque's only gated step, so it maps to PointSteal.
func (g dequeGate) Fail(deque.GateOp) bool { return g.lane.Fail(schedsan.PointSteal) }
func (g dequeGate) Delay(deque.GateOp)     { g.lane.Delay(schedsan.PointSteal) }

// wakeFault applies the PointWake rules to one producer wakeup: report true
// to swallow it (drop), stretch it (delay), or deliver one extra signal
// first (dup) — the exact perturbations a lost-wakeup bug is sensitive to.
// Producer sites have no worker identity, so decisions come off the shared
// lane.
func (s *sanState) wakeFault(rt *Runtime) bool {
	l := s.lane
	if l.Drop(schedsan.PointWake) {
		return true
	}
	l.Delay(schedsan.PointWake)
	if l.Dup(schedsan.PointWake) && rt.parked.Load() > 0 {
		rt.mu.Lock()
		rt.cond.Signal()
		rt.mu.Unlock()
	}
	return false
}

// sanChecks reports whether the continuous invariant checker is armed.
func (rt *Runtime) sanChecks() bool {
	s := rt.san
	return s != nil && s.opts.Invariants
}

// Sanitizer returns the fault injector installed by WithSanitize, or nil.
// Tests and the fuzzer use it to confirm a plan's faults actually fired.
func (rt *Runtime) Sanitizer() *schedsan.Injector {
	if rt.san == nil {
		return nil
	}
	return rt.san.inj
}

// StallReport returns the most recent stall dump, or nil.
func (rt *Runtime) StallReport() *schedsan.Report {
	s := rt.san
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastStall
}

// ViolationReport returns the most recent invariant-violation report, or
// nil. Populated only when Options.OnViolation is set (the default path
// panics instead).
func (rt *Runtime) ViolationReport() *schedsan.Report {
	s := rt.san
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastViolation
}

// sanViolation reports an invariant violation: a structured report carrying
// the formatted finding plus a full runtime state dump, delivered to
// Options.OnViolation when set and raised as a panic otherwise. Nil-safe
// no-op without a sanitizer, so call sites can be unconditional.
func (rt *Runtime) sanViolation(format string, args ...any) {
	s := rt.san
	if s == nil {
		return
	}
	rep := &schedsan.Report{
		Kind:  "invariant",
		Title: fmt.Sprintf(format, args...),
		Body:  rt.dumpState(),
		When:  time.Now(),
	}
	s.mu.Lock()
	s.violations++
	s.lastViolation = rep
	h := s.opts.OnViolation
	s.mu.Unlock()
	if h != nil {
		h(rep)
		return
	}
	panic(rep.String())
}

// recycleFrame returns f to the worker's freelist unless a PointRecycle
// fault leaks it to the garbage collector instead — legal, and it flushes
// any stale-reuse assumption the recycled fast path might hide. (Tasks ride
// embedded in their frames, so this is the task fault point too.)
func (w *worker) recycleFrame(f *frame) {
	if w.san.Fail(schedsan.PointRecycle) {
		return
	}
	w.putFrame(f)
}

// sanRunQuiescence checks that a completed run actually quiesced: its live
// frames are zero and every spawned task was either run or skipped. Every
// frame retires, and every worker flushes its run mirror, before the join
// that releases its parent (or the root's finish), so the counts are exact
// once the run's done channel has closed.
func (rt *Runtime) sanRunQuiescence(rs *runState) {
	if !rt.sanChecks() {
		return
	}
	var t cellTotals
	for i := range rs.cells {
		t.add(rs.cells[i].load())
	}
	// A frame's +1 and −1 land in the same cell, so the sum is exact here.
	if t.liveFrames != 0 {
		rt.sanViolation("run %d: %d frames still live after completion", rs.id, t.liveFrames)
	}
	// Loop pieces inflate tasksRun beyond spawns, so only the one-sided
	// bound holds in general: every spawned task must have run or been
	// skipped.
	if t.tasksRun+t.tasksSkipped < t.spawns {
		rt.sanViolation("run %d: spawns=%d but tasksRun+tasksSkipped=%d — a spawned task never joined",
			rs.id, t.spawns, t.tasksRun+t.tasksSkipped)
	}
}

// sanVerifyDrained checks the post-shutdown quiescence invariants: no worker
// exited leaving tasks in its deque, the injection queue is empty, no root
// is still active, and no worker is left parked. Together these are the
// "ShutdownDrain never strands a task" guarantee: a worker may exit only
// when closed && no run is active && inject is empty, and any unexecuted
// task holds its run's join counters above zero, which keeps its run
// active — so a stranded task contradicts the exit condition.
func (rt *Runtime) sanVerifyDrained() {
	if !rt.sanChecks() {
		return
	}
	for _, w := range rt.workers {
		if n := w.deque.Size(); n != 0 {
			rt.sanViolation("shutdown: worker %d exited leaving %d tasks in its deque", w.id, n)
		}
	}
	var inject int
	for _, n := range rt.inject.lens() {
		inject += n
	}
	rt.mu.Lock()
	roots, parked := len(rt.active), rt.parked.Load()
	gauge := rt.injected.Load()
	rt.mu.Unlock()
	if inject != 0 {
		rt.sanViolation("shutdown stranded %d injected root tasks", inject)
	}
	if gauge != int64(inject) {
		rt.sanViolation("shutdown: injected gauge %d disagrees with %d queued roots", gauge, inject)
	}
	if roots != 0 {
		rt.sanViolation("shutdown with %d computations still active", roots)
	}
	if parked != 0 {
		rt.sanViolation("shutdown left %d workers parked", parked)
	}
}

// progressCount is the watchdog's global progress vector: it moves whenever
// any worker executes or skips a task, peels a chunk, spawns, or completes a
// steal. A stall is this sum staying flat while work is outstanding.
func (rt *Runtime) progressCount() int64 {
	var n int64
	for _, c := range rt.cellTotals() {
		n += c.tasksRun + c.tasksSkipped + c.chunksPeeled + c.spawns + c.steals
	}
	return n
}

// outstandingWork reports whether any computation is still incomplete.
func (rt *Runtime) outstandingWork() bool {
	rt.mu.Lock()
	active := len(rt.active)
	rt.mu.Unlock()
	return active > 0 || rt.injected.Load() > 0
}

// anyWorkerRunning reports whether some worker is executing user code. A
// long serial chunk keeps its worker in stateRunning with the progress
// vector flat — legitimate, never a stall.
func (rt *Runtime) anyWorkerRunning() bool {
	for _, w := range rt.workers {
		if w.state.Load() == stateRunning {
			return true
		}
	}
	return false
}

// watchdog detects no-global-progress windows: the progress vector flat for
// at least StallAfter while work is outstanding and no worker is running
// user code. On a stall it emits a diagnostic dump (per-worker state, run
// table, recent trace events), increments Stats.Stalls, and rescues the
// runtime by re-broadcasting the scheduler's wakeup — so a lost-wakeup bug
// is reported *and* survived.
func (s *sanState) watchdog(rt *Runtime) {
	defer s.wg.Done()
	interval := s.opts.StallAfter / 8
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	if interval > 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	last := int64(-1)
	flatSince := time.Now()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		p := rt.progressCount()
		if p != last || !rt.outstandingWork() {
			last = p
			flatSince = time.Now()
			continue
		}
		if time.Since(flatSince) < s.opts.StallAfter {
			continue
		}
		if rt.anyWorkerRunning() {
			flatSince = time.Now()
			continue
		}
		rep := &schedsan.Report{
			Kind:  "stall",
			Title: fmt.Sprintf("no scheduler progress for %v with work outstanding", time.Since(flatSince).Round(time.Millisecond)),
			Body:  rt.dumpState(),
			When:  time.Now(),
		}
		rt.stalls.Add(1)
		s.mu.Lock()
		s.lastStall = rep
		s.mu.Unlock()
		if h := s.opts.OnStall; h != nil {
			h(rep)
		} else {
			fmt.Fprintln(os.Stderr, rep.String())
		}
		// Rescue: re-deliver the wakeup every parked worker may have missed.
		// If the stall was a lost signal the runtime resumes; if it is a real
		// livelock the next window reports again.
		rt.mu.Lock()
		rt.cond.Broadcast()
		rt.mu.Unlock()
		flatSince = time.Now()
	}
}

// dumpState renders the diagnostic dump attached to every sanitizer report:
// one line per worker (state, deque depth, counters), the scheduler-global
// queues, the active run table, and — when the tracer is recording — the
// tail of each worker's event timeline.
func (rt *Runtime) dumpState() string {
	var b strings.Builder
	rt.mu.Lock()
	inject, roots, parked := int(rt.injected.Load()), len(rt.active), rt.parked.Load()
	runs := make([]int64, 0, len(rt.active))
	for rs := range rt.active {
		runs = append(runs, rs.id)
	}
	closed := rt.closed
	rt.mu.Unlock()
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	fmt.Fprintf(&b, "  runtime: %d workers, %d parked, %d injected roots, %d active runs %v, closed=%v\n",
		len(rt.workers), parked, inject, roots, runs, closed)
	cells := rt.cellTotals()
	for i, w := range rt.workers {
		st := w.state.Load()
		name := "unknown"
		if int(st) < len(stateNames) {
			name = stateNames[st]
		}
		fmt.Fprintf(&b, "  worker %d: %s deque=%d tasksRun=%d steals=%d/%d failedSweeps=%d\n",
			w.id, name, w.deque.Size(), cells[i].tasksRun,
			cells[i].steals, w.ws.stealAttempts.Load(), w.ws.failedSweeps.Load())
	}
	if s := rt.san; s != nil && s.inj.TotalFired() > 0 {
		fmt.Fprintf(&b, "  faults injected: %d (%v)\n", s.inj.TotalFired(), s.inj.Plan())
	}
	if tr := rt.tracer; tr != nil && tr.Enabled() {
		tail := 16
		if s := rt.san; s != nil {
			tail = s.opts.TraceTail
		}
		// Stop drains the timelines race-free (seqlock quiesce); restart so
		// the tracer keeps recording after the dump.
		dump := tr.Stop()
		for i, events := range dump.Workers {
			lo := len(events) - tail
			if lo < 0 {
				lo = 0
			}
			fmt.Fprintf(&b, "  trace worker %d (last %d):", i, len(events)-lo)
			for _, e := range events[lo:] {
				fmt.Fprintf(&b, " %s", e.Kind)
			}
			b.WriteString("\n")
		}
		tr.Start()
	}
	return b.String()
}
