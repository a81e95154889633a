// Package sched implements the Cilk++ work-stealing runtime system (§3 of
// the paper) as a Go library.
//
// A Runtime owns a fixed set of workers, one per processor by default, each
// an OS-thread-locked goroutine with a private work-stealing deque. When a
// worker runs out of work it becomes a thief and steals the top (oldest)
// task from a randomly chosen victim, so all communication and
// synchronization is incurred only when a worker runs out of work (§3.2).
//
// Deviation from Cilk++ (documented in DESIGN.md): Go cannot capture the
// continuation of a running function, so the runtime steals children, as
// TBB and ForkJoinPool do, rather than continuations. Spawns are lazy
// (lazy task creation): a spawned child is pushed onto the bottom of the
// spawning worker's deque, where a thief can take it, only when that deque
// is empty; otherwise the child runs to completion inline before Spawn
// returns, as cheap as the work-first principle asks, and is still a spawn
// of the dag — its panic is quarantined at the child and its span merges by
// max at the sync. The computation dag, the greedy scheduling bound T_P ≤
// T1/P + O(T∞), and the reducer semantics are unaffected; the exact Cilk
// stack bound is reproduced by the faithful continuation-stealing
// scheduler in internal/sim.
//
// The runtime also supports a serial-elision mode (§1: parallel code
// "retains its serial semantics when run on one processor"). Each run then
// executes on a worker of its own on the caller's goroutine, through the
// same root, spawn, frame and accounting paths as a parallel run, with every
// child inline — its strand worker has no deque — and instrumentation hooks
// firing in depth-first serial order. The Cilkscreen race detector
// (internal/race) and the Cilkview profiler (internal/cilkview) run
// programs in this mode.
package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"cilkgo/internal/deque"
	"cilkgo/internal/schedsan"
	"cilkgo/internal/trace"
)

// config collects the options for a Runtime.
type config struct {
	workers     int
	serial      bool
	hooks       Hooks
	stealSeed   int64
	lockThreads bool
	trace       bool
	traceOpts   []TraceOption
	sanitize    *schedsan.Options
	observer    RunObserver
	admission   *AdmissionConfig
}

// Option configures a Runtime.
type Option func(*config)

// WithWorkers sets the number of workers (default: runtime.GOMAXPROCS(0)),
// mirroring the Cilk++ runtime's one-worker-per-processor default, which
// "the programmer can override" (§3.2).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithSerialElision makes the runtime execute the program as its serial
// elision: Submit runs the root on the caller's goroutine, on a worker
// private to the run, and each spawned child runs to completion before its
// Spawn returns, in depth-first serial order. Instrumentation hooks fire
// only in this mode.
func WithSerialElision() Option {
	return func(c *config) { c.serial = true }
}

// WithHooks installs instrumentation hooks. Hooks require WithSerialElision;
// New panics otherwise.
func WithHooks(h Hooks) Option {
	return func(c *config) { c.hooks = h }
}

// WithStealSeed seeds the workers' random victim selection, making
// steal-order reproducible for tests, and nothing else. The default seed is
// 1.
func WithStealSeed(seed int64) Option {
	return func(c *config) { c.stealSeed = seed }
}

// WithNoThreadLocking disables runtime.LockOSThread on workers. The default
// is to lock, mirroring Cilk++'s allocation of one OS thread per processor.
func WithNoThreadLocking() Option {
	return func(c *config) { c.lockThreads = false }
}

// TraceOption configures the tracer installed by WithTracing (see
// internal/trace, e.g. trace.Capacity).
type TraceOption = trace.Option

// WithTracing equips the runtime with a per-worker event tracer (see
// internal/trace). The tracer starts disabled: until Tracer().Start() is
// called, every instrumentation site costs a call, one atomic load and a
// branch (without WithTracing, a nil test).
// Tracing observes the parallel schedule and therefore requires a parallel
// runtime; New panics if combined with WithSerialElision (use Hooks there).
func WithTracing(opts ...TraceOption) Option {
	return func(c *config) {
		c.trace = true
		c.traceOpts = opts
	}
}

// Runtime is a Cilk work-stealing scheduler instance. Construct with New,
// submit computations with Submit, and release the workers with Shutdown.
type Runtime struct {
	cfg     config
	workers []*worker
	tracer  *trace.Tracer // nil unless the Tracing option was given
	runIDs  atomic.Int64  // Submit ids, for trace attribution

	// Robustness-layer counters (see cancel.go and Metrics).
	runsCanceled      atomic.Int64
	panicsQuarantined atomic.Int64

	// Memory-layer counter (see memory.go): runs cancelled with
	// ErrMemoryBudget, counted exactly once per run at release.
	memBudgetCancels atomic.Int64

	// Sanitizer layer (see sanitize.go): nil unless built with WithSanitize.
	// stalls counts the watchdog's no-progress findings (Stats.Stalls).
	san    *sanState
	stalls atomic.Int64

	// Observation layer (see obs.go). obsEpoch anchors the nanots monotonic
	// timestamps the online work/span clocks use; obsH holds the live
	// latency histograms, nil unless a RunObserver is installed.
	obsEpoch time.Time
	obsH     *obsHist

	// parked counts workers blocked on cond in the park phase of their
	// hunt. Producers (Spawn pushes, range splits) read it to decide
	// whether a wakeup is needed; with no one parked, publishing work costs
	// one atomic load here and nothing else.
	parked atomic.Int32

	// strands pools the workers serial-elision runs execute on (runSerial).
	strands sync.Pool

	// Root-injection path (see inject.go and submit.go): one per-QoS-class
	// queue drained by weighted deficit round-robin. injected counts its
	// roots — the one-atomic-load fast path an idle worker checks before
	// touching the queue's lock. adm is the admission-control state (always
	// present; limits armed only by WithAdmission).
	inject   injectLane
	injected atomic.Int64
	adm      *admission

	mu     sync.Mutex
	cond   *sync.Cond
	active map[*runState]struct{}
	// retired holds, per worker, the counts of every finished run: finish
	// folds a run's cells in as it deletes the run from active. A serial
	// runtime has one entry, for its runs' strand workers. Guarded by mu.
	retired []cellTotals
	// idle is closed when the last active run finishes, for the drainers
	// waiting in ShutdownDrain; nil while no drainer waits. Guarded by mu.
	// The drainers wait on it rather than on cond so that they cannot
	// swallow a Signal meant for a parked worker.
	idle   chan struct{}
	closed bool
	wg     sync.WaitGroup
}

// New creates a runtime and starts its workers. In serial-elision mode no
// worker goroutines are started; Submit executes each run on the caller's
// goroutine, on a strand worker of the run's own (runSerial).
func New(opts ...Option) *Runtime {
	cfg := config{
		workers:     runtime.GOMAXPROCS(0),
		stealSeed:   1,
		lockThreads: true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers < 1 {
		panic(fmt.Sprintf("sched: WithWorkers(%d) out of range", cfg.workers))
	}
	if cfg.hooks != nil && !cfg.serial {
		panic("sched: WithHooks requires SerialElision")
	}
	if cfg.trace && cfg.serial {
		panic("sched: Tracing requires a parallel runtime (hooks cover the serial elision)")
	}
	if cfg.sanitize != nil && cfg.serial {
		panic("sched: WithSanitize requires a parallel runtime (there is no schedule to sanitize serially)")
	}
	if cfg.serial {
		cfg.workers = 1
	}
	rt := &Runtime{cfg: cfg, active: make(map[*runState]struct{}), obsEpoch: time.Now()}
	rt.retired = make([]cellTotals, cfg.workers)
	rt.cond = sync.NewCond(&rt.mu)
	rt.adm = newAdmission(cfg.admission)
	if cfg.serial {
		rt.strands.New = func() any { return &worker{rt: rt, lastVictim: -1} }
		return rt
	}
	if cfg.observer != nil {
		rt.obsH = newObsHist()
	}
	if cfg.trace {
		rt.tracer = trace.New(cfg.workers, cfg.traceOpts...)
	}
	rt.workers = make([]*worker, cfg.workers)
	for i := range rt.workers {
		slot := &workerSlot{worker: worker{
			rt:         rt,
			id:         i,
			deque:      deque.New[task](),
			rng:        rand.New(rand.NewSource(cfg.stealSeed + int64(i)*0x9e3779b9)),
			lastVictim: -1,
			frameFree:  make([]*frame, 0, frameLocalCap),
		}}
		rt.workers[i] = &slot.worker
		if rt.tracer != nil {
			rt.workers[i].rec = rt.tracer.Recorder(i)
		}
	}
	if cfg.sanitize != nil {
		// Wire lanes and deque gates before any worker runs, then start the
		// watchdog alongside them.
		rt.san = newSanState(rt, *cfg.sanitize)
	}
	rt.wg.Add(len(rt.workers))
	for _, w := range rt.workers {
		go w.loop()
	}
	if rt.san != nil {
		rt.san.start(rt)
	}
	return rt
}

// Workers reports the number of workers.
func (rt *Runtime) Workers() int { return rt.cfg.workers }

// Serial reports whether the runtime runs serial elisions.
func (rt *Runtime) Serial() bool { return rt.cfg.serial }

// Tracer returns the event tracer installed by the Tracing option, or nil.
// Typical use: rt.Tracer().Start(), run computations, then
// rt.Tracer().Stop() for the drained timelines.
func (rt *Runtime) Tracer() *trace.Tracer { return rt.tracer }

// runSerial executes a serial-elision root on a strand worker of its own,
// on the caller's goroutine, through the same runTask root path a worker
// goroutine takes for an injected root; every Spawn below it runs inline
// (spawnInline). The strand is the run's only worker, so it accounts in the
// run's cell 0, and it has no deque and steals nothing: an inline spawn
// leaves nothing to join. Strand workers are pooled per runtime, so their
// frame freelists outlive one run, and concurrent serial runs each take
// their own.
func (rt *Runtime) runSerial(root *task) {
	w := rt.strands.Get().(*worker)
	h := rt.cfg.hooks
	if h != nil {
		h.FrameStart()
	}
	w.runTask(root)
	if h != nil {
		h.FrameEnd()
	}
	rt.strands.Put(w)
}

// finalizeViews delivers the computation's folded views to hyperobjects
// that want them.
func finalizeViews(views viewMap) {
	for _, e := range views {
		if fin, ok := e.key.(Finalizer); ok {
			fin.Finalize(e.v)
		}
	}
}

// Shutdown stops the workers after letting in-flight computations run to
// completion (an unbounded drain). Submit after Shutdown returns
// ErrShutdown. For a bounded drain that cancels stragglers, use
// ShutdownDrain. Shutdown is idempotent.
func (rt *Runtime) Shutdown() {
	rt.mu.Lock()
	rt.closed = true
	rt.cond.Broadcast()
	rt.mu.Unlock()
	rt.wg.Wait()
	rt.san.shut()
	rt.sanVerifyDrained()
}

// Panic is one quarantined panic: the value passed to panic and the stack
// of the panicking strand.
type Panic struct {
	Value any
	Stack []byte
}

// PanicError reports the panics quarantined during a submitted computation.
// The first panic cancels the rest of the run; strands already executing
// when that happens may panic too, and every captured panic is collected in
// All rather than lost. Value and Stack mirror All[0] so existing
// single-panic consumers keep working.
type PanicError struct {
	Value any     // the first panic's value
	Stack []byte  // the first panic's stack, if captured
	All   []Panic // every quarantined panic, in capture order
}

func (e *PanicError) Error() string {
	if len(e.All) > 1 {
		return fmt.Sprintf("sched: panic in spawned computation: %v (and %d more quarantined)",
			e.Value, len(e.All)-1)
	}
	return fmt.Sprintf("sched: panic in spawned computation: %v", e.Value)
}

// worker is one scheduler thread with its private deque (§3.2: "each
// worker's stack operates like a work queue").
type worker struct {
	// id and deque are what other workers read: thieves load a victim's id
	// and deque on every probe. The fields up to mr are written rarely or
	// never, and mr starts 64 bytes in; workerSlot keeps every worker
	// 64-aligned, so a thief's probes never share a cache line with the
	// owner's per-spawn stores to mr and frameFree.
	rt    *Runtime
	id    int
	deque *deque.Deque[task]
	rng   *rand.Rand
	// rec is the worker's private event recorder; nil unless the runtime
	// was built with Tracing (all Recorder methods are nil-safe no-ops).
	rec *trace.Recorder
	// Sanitizer fields (see sanitize.go). san is the worker's fault-
	// injection lane, nil without WithSanitize. watch gates the state word:
	// when the stall watchdog is armed, the worker publishes its coarse
	// state (running/hunting/parked) at task and park boundaries so the
	// watchdog can tell long user chunks from a stalled scheduler.
	san   *schedsan.Lane
	watch bool
	state atomic.Int32
	// huntStart is the nanots timestamp of the current hunt's start,
	// recorded only while the runtime carries an observer — a successful
	// steal observes hunt-to-steal latency.
	huntStart int64
	// mr mirrors the worker's cell of the run it is accounting for, and clk
	// is its last clock read on an observed run, 0 once the worker may
	// have idled since (obs.go). Both are private to the worker's goroutine.
	// ws holds the worker's counters that belong to no run (stats.go).
	mr  runMirror
	clk int64
	ws  workerStats
	// hunting is true while the worker is between running out of work and
	// finding the next task, bracketing the trace's idle slices. Only the
	// worker's own goroutine touches it.
	hunting bool
	// lastVictim is the id of the worker the last successful steal came
	// from, or -1. A victim that had surplus work once likely still has more,
	// so a sweep probes it first. Only the worker's own goroutine touches it.
	lastVictim int
	// Frame recycling (see frame.go): the worker-private freelist — the
	// spawn path's allocator, touched by no other goroutine — and the
	// cached spill box that lets steady-state spill/refill cycles move
	// batches to and from the global backstop without allocating.
	frameFree []*frame
	slabCache *frameSlab
}

// workerSlot rounds a worker up to whole 64-byte cache lines. Go's
// allocator rounds such a size up to a size class that is again a multiple
// of 64, and its spans start page-aligned, so every separately allocated
// slot starts on a cache-line boundary.
type workerSlot struct {
	worker
	_ [(64 - unsafe.Sizeof(worker{})%64) % 64]byte
}

// Hunt phases, measured in consecutive failed sweeps. A worker that runs out
// of work first re-sweeps immediately (work often reappears within a few
// probes), then yields the processor between sweeps, and finally parks on the
// runtime condition variable until a producer wakes it. Parking replaces the
// old exponential sleep backoff: a parked worker is woken by a Signal and
// starts its next sweep immediately, where the sleep-based hunt delayed the
// first post-wakeup sweep by up to the accumulated backoff.
const (
	spinSweeps  = 4
	yieldSweeps = 32
)

// loop is the worker's top-level scheduling loop: drain own deque, take
// injected roots, steal; escalate spin → yield → park when work is scarce.
func (w *worker) loop() {
	defer w.rt.wg.Done()
	if w.rt.cfg.lockThreads {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	fails := 0
	for {
		if t := w.findTask(); t != nil {
			if w.hunting {
				w.hunting = false
				w.rec.IdleExit()
			}
			fails = 0
			if w.watch {
				w.state.Store(stateRunning)
			}
			w.runTask(t)
			if w.watch {
				w.state.Store(stateHunting)
			}
			continue
		}
		if !w.hunting {
			w.hunting = true
			if w.rt.obsH != nil {
				w.huntStart = w.rt.nanots()
			}
			w.rec.IdleEnter()
		}
		fails++
		switch {
		case fails <= spinSweeps:
			// Spin: sweep again immediately.
		case fails <= yieldSweeps:
			if fails == spinSweeps+1 {
				w.rec.HuntYield()
			}
			runtime.Gosched()
		default:
			if !w.park() {
				return
			}
			// Unparked for (likely) new work: sweep immediately, with the
			// failure count reset — no sleep between wakeup and first probe.
			fails = 0
		}
	}
}

// findTask returns the next task: own deque first (bottom, LIFO), then the
// injection queue, then one steal sweep over the other workers.
func (w *worker) findTask() *task {
	if t := w.deque.PopBottom(); t != nil {
		return t
	}
	if t := w.takeInjected(); t != nil {
		return t
	}
	return w.stealOnce()
}

// takeInjected pops the next queued root by DRR. The empty-path cost is one
// atomic load of rt.injected — no mutex — which is what lets every idle
// worker probe the injection queue on every sweep without serializing on a
// lock.
func (w *worker) takeInjected() *task {
	rt := w.rt
	if rt.injected.Load() == 0 {
		return nil
	}
	t := rt.inject.pop()
	if t == nil {
		return nil
	}
	rt.injected.Add(-1)
	rs := t.frame.run
	rt.rootPicked(rs)
	w.rec.InjectPickup()
	return t
}

// rootPicked records a root's transit from queued to running: the Ticket's
// queue-latency clock and the admission state machine's queued→running
// transition.
func (rt *Runtime) rootPicked(rs *runState) {
	rs.pickedNs.Store(rt.nanots())
	rt.adm.picked(rs)
}

// stealOnce performs one steal sweep, returning the first successfully
// stolen task, or nil. The sweep is adaptive: the remembered victim is
// probed first (a victim that had surplus once likely still has more), then
// a random rotation over the other workers (§3.2's randomly chosen victim).
// A sweep that finds nothing forgets the remembered victim and counts
// toward the worker's hunt escalation.
func (w *worker) stealOnce() *task {
	rt := w.rt
	// A worker that goes looking for work has run dry or is waiting on a
	// stolen child: the steal boundary is where its counts get flushed.
	// It may idle from here on — every sleep, yield and park follows a
	// failed sweep — so its last clock read is no longer a resume point.
	w.flushRun()
	w.clk = 0
	n := len(rt.workers)
	if n <= 1 {
		return nil
	}
	last := w.lastVictim
	if last >= 0 && last != w.id {
		if t := w.stealFrom(rt.workers[last]); t != nil {
			return t
		}
	}
	start := w.rng.Intn(n)
	for i := 0; i < n; i++ {
		victim := rt.workers[(start+i)%n]
		if victim == w || victim.id == last {
			continue
		}
		if t := w.stealFrom(victim); t != nil {
			w.lastVictim = victim.id
			return t
		}
	}
	w.lastVictim = -1
	bump(&w.ws.failedSweeps)
	return nil
}

// stealFrom probes one victim: one steal from the top of its deque (§3.2).
// Exactly one StealSuccess is recorded per successful steal, so trace event
// counts and the Steals counter agree.
func (w *worker) stealFrom(victim *worker) *task {
	bump(&w.ws.stealAttempts)
	w.rec.StealAttempt(int32(victim.id))
	t := victim.deque.Steal()
	if t == nil {
		return nil
	}
	if h := w.rt.obsH; h != nil && w.hunting {
		// Hunt-to-steal latency: how long this worker went without work
		// before the steal landed. Steals from syncWait (not hunting) are
		// excluded — the worker was never idle.
		h.steal.Observe(time.Duration(w.rt.nanots() - w.huntStart))
	}
	rf := t.frame
	if t.loop != nil {
		rf = t.loop.frame
	}
	bump(&rf.run.cells[w.id].steals)
	w.rec.StealSuccess(int32(victim.id))
	if t.loop != nil {
		// A stolen range task splits immediately (see loop.go): the thief
		// keeps the front half and re-publishes the back half, so further
		// thieves need not wait for this one's first remainder publish.
		w.splitRange(t)
	}
	return t
}

const (
	minBackoff = time.Microsecond
	maxBackoff = 200 * time.Microsecond
)

// wake rouses one parked worker. Producers call it after making stealable
// work visible outside the injection queue (a Spawn push, a range split). The fast path is one atomic load; the mutex is taken only when
// someone is actually parked, and pairs with the parker's under-lock re-check
// so the signal cannot fall between a parker's last look for work and its
// wait.
func (rt *Runtime) wake() {
	if s := rt.san; s != nil && s.wakeFault(rt) {
		return // injected lost wakeup (liveness-benign; see stealableWork)
	}
	if rt.parked.Load() == 0 {
		return
	}
	rt.mu.Lock()
	rt.cond.Signal()
	rt.mu.Unlock()
}

// stealableWork reports whether any worker's deque appeared non-empty. The
// loads are racy, and a spawn-path wake CAN be lost entirely: the producer's
// fast path reads parked without the mutex, so the interleaving
//
//	parker reads producer's deque empty → producer pushes → producer reads
//	parked == 0 (skips the Signal) → parker registers as parked and Waits
//
// is consistent even under sequentially consistent atomics — nothing orders
// the parker's registration before the producer's read. The lost wakeup is
// nevertheless benign for liveness: every producer outside the injection
// path is a worker that just pushed onto its *own* deque, and a worker
// cannot park while its own deque is non-empty (it pops it dry first and
// re-checks under the lock here), so the pushed work is always executed or
// re-exposed by its producer even if every parked worker sleeps through it.
// The regression test TestSanDropWakeLiveness pins this argument by
// dropping every spawn-path wake and requiring runs to complete. Only a
// root injection lacks a producer that will execute the work itself, which
// is why Submit pairs the queue push with an unconditional Signal under
// rt.mu — paired with the parker's rt.injected re-check below, also under
// rt.mu, that wakeup cannot be lost (the full argument is in submit.go) —
// and why schedsan treats it as unloseable (its loss,
// Options.BreakInjectWake, is a genuine stall reserved for watchdog tests).
func (rt *Runtime) stealableWork() bool {
	for _, v := range rt.workers {
		if !v.deque.Empty() {
			return true
		}
	}
	return false
}

// park blocks the worker until work may be available or the runtime shuts
// down. It returns false when the worker should exit. Unlike the old
// sleep-backoff idle loop, a worker may park even while computations are
// active (its hunt escalated through spin and yield first), and on wakeup it
// returns to the sweep immediately — the wakeup-to-first-probe path contains
// no sleep.
func (w *worker) park() bool {
	rt := w.rt
	w.flushRun() // a parked (or exiting) worker's counts are flushed
	// Sanitizer: stretch the classic check-then-block window between the
	// last failed sweep and registration as parked.
	w.san.Delay(schedsan.PointPark)
	rt.mu.Lock()
	for {
		if rt.closed && len(rt.active) == 0 && rt.injected.Load() == 0 {
			rt.mu.Unlock()
			if rt.sanChecks() && !w.deque.Empty() {
				rt.sanViolation("worker %d exiting with %d tasks in its deque", w.id, w.deque.Size())
			}
			return false
		}
		// The rt.injected re-check under rt.mu is the parker's half of the
		// injection wake guarantee (see submit.go): a root enqueued before we
		// took the mutex is visible here, and one enqueued after will find us
		// already waiting when its Signal fires.
		if rt.injected.Load() > 0 || rt.stealableWork() {
			rt.mu.Unlock()
			return true
		}
		rt.parked.Add(1)
		if w.watch {
			w.state.Store(stateParked)
		}
		var parkT0 int64
		if rt.obsH != nil {
			parkT0 = rt.nanots()
		}
		w.rec.Park()
		rt.cond.Wait()
		w.rec.Unpark()
		if h := rt.obsH; h != nil {
			h.parkWake.Observe(time.Duration(rt.nanots() - parkT0))
		}
		if w.watch {
			w.state.Store(stateHunting)
		}
		rt.parked.Add(-1)
	}
}

// runTask executes one task to completion: a popped, stolen or picked-up
// spawned child (or root) through runFrame, then the frame's views are
// deposited with its parent and the join signalled (joinChild), or, for a
// root, the run finished. A range task runs through runPiece instead, whose
// episode is again a frame run by runFrame. Tasks of a cancelled run are
// skipped, not executed — the steal/pickup boundary is a cancel check site.
func (w *worker) runTask(t *task) {
	if t.loop != nil {
		w.runPiece(t)
		return
	}
	fn, f := t.fn, t.frame
	// The task is fused into its frame (frame.t) and recycles with it in
	// runFrame; dropping the closure reference here is the only per-task
	// cleanup left.
	t.fn = nil
	rs := f.run
	if f.parent != nil {
		// A spawned task was pushed, charged as a queued frame (Spawn); from
		// here it runs, and counts as a live frame, or is skipped. A root is
		// never charged: it counts once it runs.
		w.chargeMem(rs, -frameMemBytes)
	}
	rs.checkBudget(w) // task start is a budget boundary, like the cancel gate below
	if rs.cancelled() {
		w.skipFrame(f)
		return
	}
	p, ord := f.parent, f.ordinal // runFrame recycles f
	views := w.runFrame(f, fn, nil, rs.clock)
	// runFrame retired the frame — settled its live-frame gauge, which is
	// also its memory — before the parent's join is signalled (or the root
	// finishes): the decrement thereby happens-before the run's done
	// channel closes, so a run's live-frame and live-byte sums are exactly
	// zero by the time Ticket.Wait returns. The deposit, too,
	// precedes the join that orders the parent's fold after it.
	if p != nil {
		if len(views) > 0 {
			p.depositChildViews(ord, views)
		}
		w.joinChild(p)
	} else {
		finalizeViews(views)
		w.flushRun()
		rs.finish()
		w.clk = 0 // RunEnd ran inside finish: no longer a resume point
	}
}

// runFrame runs fn as the body of frame f on w, to completion: the part of
// a frame's life every spawned child shares however it was scheduled —
// popped, stolen or picked up as a task (runTask), run inline at its spawn
// (spawnInline), or an episode of a scheduled loop piece (runPiece). It
// counts the task, runs fn and its implicit sync on a strand that starts
// with views, and hands the rest to endFrame, which quarantines a panic at
// the frame, closes the strand's clock, retires the frame and returns the
// strand's final views, for the caller to deposit with the parent or hand
// back to it.
func (w *worker) runFrame(f *frame, fn func(*Context), views viewMap, cl *runClock) (out viewMap) {
	rs := f.run
	root := f.parent == nil
	m := w.acct(rs)
	if !root {
		m.c.tasksRun++
	}
	m.frameStart(f.depth)
	if root || rs.memBudget > 0 {
		// A run may sit in its root for as long as it likes without spawning;
		// the live-memory gauge admission consults must see its frame now. A
		// budgeted run writes every frame through (see chargeMem).
		w.flushRun()
	}
	w.rec.TaskStart(f.depth, rs.id)

	// The Context is fused into the frame too: running a task allocates
	// nothing. Only w and rt need (re)binding — the frame link is a
	// self-link preserved across pool lives, and resetFrame zeroed the rest.
	ctx := w.bindContext(f)
	if views != nil { // a fresh or recycled frame's views are nil already
		ctx.views = views
	}
	if cl != nil {
		w.resumeClock()
	}
	defer w.endFrame(ctx, cl, &out)
	fn(ctx)
	ctx.Sync() // implicit sync before return (§1)
	return
}

// endFrame is runFrame's epilogue, deferred so that it runs on a panic too
// and can recover it. A panic is quarantined at the frame: poison records
// it and cancels the rest of the run, and the frame's own children are
// still drained, so a failed computation never leaves orphan tasks running
// after Ticket.Wait returns, and the panic never unwinds into the parent.
// On an observed run (cl non-nil) the frame's last strand segment is
// closed and its span deposited. The frame is retired last, and the
// strand's views are stored to *out.
func (w *worker) endFrame(ctx *Context, cl *runClock, out *viewMap) {
	f := ctx.frame
	rs := f.run
	if r := recover(); r != nil {
		rs.poison(r)
		w.rec.Panic(f.depth, rs.id)
		ctx.syncWait()  // drain children even on panic
		w.resumeClock() // the drain may have idled the worker
	}
	if cl != nil {
		// Close the frame's final strand segment and publish its span. The
		// deposit happens strictly before the caller's join signal, so a
		// parent folding after the join observes it; for the root, the
		// store precedes rs.finish()'s done-channel close, which publishes
		// the span to the Ticket's waiter.
		ctx.charge()
		ctx.depositSpan(cl)
	}
	if ctx.views != nil { // out is nil already
		*out = ctx.views
	}
	// The frame's own work is complete — children joined, span deposited —
	// so this strand owns it exclusively and nothing can reach it through
	// the deque (ring slots no longer retain stale pointers). Recycle it,
	// with its embedded task and Context; the strand's views outlive it
	// (resetFrame drops only the header).
	w.recycleFrame(f)
	w.acct(rs).c.liveFrames--
	if rs.memBudget > 0 {
		w.flushRun() // write the retired frame through (see chargeMem)
	}
	w.rec.TaskEnd()
}

// bindContext readies f's embedded Context to run on w. A frame off w's own
// freelist usually ran here last and is still bound (resetFrame leaves w and
// rt alone), so the two barriered pointer writes happen only for a frame that
// came from elsewhere.
func (w *worker) bindContext(f *frame) *Context {
	ctx := &f.ctx
	if ctx.w != w {
		ctx.w, ctx.rt = w, w.rt
	}
	return ctx
}

// joinChild signals p that one of its children has finished — run or
// skipped — on worker w. A frame runs on one worker from start to finish
// (children are stolen, continuations never), so p.ctx.w == w means p's
// strand is further up this goroutine's own stack, waiting in a sync or
// still to reach one: the join is a plain increment that strand will read
// in program order. Any other child — stolen, or picked up by an idle
// worker — pays for the sharing here: it flushes the worker's run
// mirror, so that its counts are visible to whoever observes the join, and
// decrements the atomic join word.
func (w *worker) joinChild(p *frame) {
	if p.ctx.w == w {
		p.inline++
		return
	}
	w.flushRun()
	bump(&w.ws.offStrandJoins)
	p.join.Add(-1)
}

// skipFrame abandons a cancelled run's frame without executing its body.
// The frame still joins: its parent counts it like a completed child (or,
// for a root, the run is finished), so syncs observe the same join
// structure as a completed run — the task merely contributed no work and
// deposited no views. This is what bounds cancellation latency: every
// outstanding task drains in O(1). The frame is recycled on the way out (a
// skipped frame never ran, so it has no children of its own).
func (w *worker) skipFrame(f *frame) {
	rs := f.run
	w.countSkip(rs, f.depth)
	// Its queued-frame charge was refunded in runTask. Recycle before
	// signalling the join (or finishing the root), as runTask's completion
	// path does.
	p := f.parent
	w.recycleFrame(f)
	if p != nil {
		w.joinChild(p)
	} else {
		w.flushRun()
		rs.finish()
		w.clk = 0 // as on runTask's root path
	}
}
