// Package sched implements the Cilk++ work-stealing runtime system (§3 of
// the paper) as a Go library.
//
// A Runtime owns a fixed set of workers, one per processor by default, each
// an OS-thread-locked goroutine with a private work-stealing deque. A
// spawned function's task is pushed onto the bottom of the spawning worker's
// deque; when a worker runs out of work it becomes a thief and steals the
// top (oldest) task from a randomly chosen victim, so all communication and
// synchronization is incurred only when a worker runs out of work (§3.2).
//
// Deviation from Cilk++ (documented in DESIGN.md): Go cannot capture the
// continuation of a running function, so Spawn pushes the child task and the
// parent continues — child stealing, as in TBB and ForkJoinPool — rather
// than Cilk's continuation stealing. The computation dag, the greedy
// scheduling bound T_P ≤ T1/P + O(T∞), and the reducer semantics are
// unaffected; the exact Cilk stack bound is reproduced by the faithful
// continuation-stealing scheduler in internal/sim.
//
// The runtime also supports a serial-elision mode (§1: parallel code
// "retains its serial semantics when run on one processor") in which Spawn
// executes the child immediately as an ordinary call on the caller's
// goroutine, firing instrumentation hooks in depth-first serial order. The
// Cilkscreen race detector (internal/race) and the Cilkview profiler
// (internal/cilkview) run programs in this mode.
package sched

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
// elision: spawns become ordinary calls on the caller's goroutine, in
// depth-first serial order. Instrumentation hooks fire only in this mode.
func WithSerialElision() Option {
	return func(c *config) { c.serial = true }
}

// WithHooks installs instrumentation hooks. Hooks require WithSerialElision;
// New panics otherwise.
func WithHooks(h Hooks) Option {
	return func(c *config) { c.hooks = h }
}

// WithStealSeed seeds the workers' random victim selection, making
// steal-order reproducible for tests. The default seed is 1.
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
// called, every instrumentation site costs one atomic load and a branch.
// Tracing observes the parallel schedule and therefore requires a parallel
// runtime; New panics if combined with WithSerialElision (use Hooks there).
func WithTracing(opts ...TraceOption) Option {
	return func(c *config) {
		c.trace = true
		c.traceOpts = opts
	}
}

// Runtime is a Cilk work-stealing scheduler instance. Construct with New,
// submit computations with Submit (or the legacy Run wrappers), and release
// the workers with Shutdown.
type Runtime struct {
	cfg     config
	workers []*worker
	tracer  *trace.Tracer // nil unless the Tracing option was given
	runIDs  atomic.Int64  // Run invocation ids, for trace attribution

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
	// hunt. Producers (Spawn pushes, batch-steal extras) read it to decide
	// whether a wakeup is needed; with no one parked, publishing work costs
	// one atomic load here and nothing else.
	parked atomic.Int32

	// Root-injection path (see inject.go and submit.go): one lane per
	// worker, each a per-QoS-class queue drained by weighted deficit
	// round-robin. injected counts queued roots across all lanes — the
	// one-atomic-load fast path an idle worker's sweep checks before
	// touching any lane lock — and queuedByClass breaks it down for
	// LoadReport. laneRR round-robins unlabeled submissions across lanes.
	// adm is the admission-control state (always present; limits armed only
	// by WithAdmission).
	lanes         []*injectLane
	laneRR        atomic.Uint64
	injected      atomic.Int64
	queuedByClass [numQoS]atomic.Int64
	adm           *admission

	mu          sync.Mutex
	cond        *sync.Cond
	active      map[*runState]struct{}
	activeRoots int
	closed      bool
	wg          sync.WaitGroup
}

// New creates a runtime and starts its workers. In serial-elision mode no
// worker goroutines are started; Run executes on the caller's goroutine.
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
	rt.cond = sync.NewCond(&rt.mu)
	rt.adm = newAdmission(cfg.admission)
	if cfg.serial {
		return rt
	}
	rt.lanes = make([]*injectLane, cfg.workers)
	for i := range rt.lanes {
		rt.lanes[i] = &injectLane{}
	}
	if cfg.observer != nil {
		rt.obsH = newObsHist()
	}
	if cfg.trace {
		rt.tracer = trace.New(cfg.workers, cfg.traceOpts...)
	}
	rt.workers = make([]*worker, cfg.workers)
	for i := range rt.workers {
		rt.workers[i] = &worker{
			rt:         rt,
			id:         i,
			deque:      deque.New[task](),
			rng:        rand.New(rand.NewSource(cfg.stealSeed + int64(i)*0x9e3779b9)),
			lastVictim: -1,
			frameFree:  make([]*frame, 0, frameLocalCap),
		}
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

// Run executes fn as the root of a fork-join computation and blocks until
// the computation — including everything it spawned — completes. A panic
// anywhere in the computation is quarantined and returned as a *PanicError
// after all outstanding work has drained (the rest of the run is abandoned
// cooperatively; the runtime stays healthy for subsequent Runs). Run may be
// called concurrently from several goroutines; the computations share the
// workers (§3.2's performance composability). Run is
// RunCtx(context.Background(), fn); use RunCtx for cancellation and
// deadlines.
//
// Deprecated: use Submit, which subsumes all four Run entry points —
// Run(fn) is Submit(context.Background(), fn) followed by Ticket.Wait.
func (rt *Runtime) Run(fn func(*Context)) error {
	_, err := rt.run(context.Background(), fn, false)
	return err
}

// RunWithStats is Run with per-computation accounting: the returned Stats
// covers exactly this computation — its spawns, tasks, steals of its tasks,
// its live-frame high-water mark and deepest spawn — so concurrent Run
// calls sharing the workers can be told apart (§3.2's performance
// composability, now observable). StealAttempts is zero in the result:
// failed probes cannot be attributed to any one computation. The extra
// accounting costs a few per-run atomic increments; plain Run pays only a
// nil check per site.
//
// Deprecated: use Submit with WithStats — RunWithStats(fn) is
// Submit(context.Background(), fn, WithStats()) followed by Ticket.Wait and
// Ticket.Stats.
func (rt *Runtime) RunWithStats(fn func(*Context)) (Stats, error) {
	return rt.run(context.Background(), fn, true)
}

// run is the shared body of the four legacy entry points: Submit with
// default options, awaited inline.
func (rt *Runtime) run(ctx context.Context, fn func(*Context), track bool) (Stats, error) {
	tk, err := rt.submit(ctx, fn, submitCfg{qos: QoSBatch, track: track})
	if err != nil {
		return Stats{}, err
	}
	err = tk.Wait()
	return tk.Stats(), err
}

// runSerial executes fn's serial elision on the caller's goroutine.
func (rt *Runtime) runSerial(fn func(*Context), rs *runState) (err error) {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ErrShutdown
	}
	rt.active[rs] = struct{}{}
	rt.mu.Unlock()
	defer func() {
		rt.mu.Lock()
		delete(rt.active, rs)
		rt.mu.Unlock()
	}()
	root := &frame{run: rs}
	ctx := &Context{rt: rt, frame: root}
	defer func() {
		if r := recover(); r != nil {
			rs.poison(r)
		}
		if e := rs.err(); e != nil {
			err = e
		}
	}()
	if s := rs.stats; s != nil {
		// Publish the strand-local counters spawnSerial tracked (see
		// runState) into cell 0 exactly once, on every exit path — the
		// deferred publish runs before submit's snapshot. The +1 on the
		// live-frame watermark is the root frame itself, so a spawn-free
		// run still reports 1.
		defer func() {
			c0 := &s.cells[0]
			c0.spawns.Store(rs.serialSpawns)
			c0.tasksRun.Store(rs.serialSpawns)
			c0.maxDepth.Store(rs.serialMaxDepth)
			c0.maxLiveFrames.Store(rs.serialMaxDepth + 1)
		}()
	}
	if h := rt.cfg.hooks; h != nil {
		h.FrameStart()
		defer h.FrameEnd()
	}
	fn(ctx)
	ctx.Sync()
	finalizeViews(ctx.views)
	return nil
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
// completion (an unbounded drain). New Runs submitted after Shutdown return
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

// PanicError reports the panics quarantined during a computation submitted
// to Run. The first panic cancels the rest of the run; strands already
// executing when that happens may panic too, and every captured panic is
// collected in All rather than lost. Value and Stack mirror All[0] so
// existing single-panic consumers keep working.
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
	// and deque on every probe. The fields up to hot are written rarely or
	// never, and hot starts 64 bytes in; the worker's 320-byte size class
	// keeps every worker 64-aligned, so a thief's probes never share a cache
	// line with the owner's per-spawn stores to hot and frameFree.
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
	// hot holds the spawn-path counters, private to the worker's goroutine;
	// ws holds what other goroutines may read (see publish in stats.go).
	hot hotStats
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

// takeInjected sweeps the injection lanes for a queued root: own lane first
// (tenant-hashed submissions land on a stable lane, so the worker warm with
// a tenant's state probes that tenant's lane first), then the rest rotated
// by the worker's id so concurrent sweepers spread instead of convoying.
// The empty-path cost is one atomic load of rt.injected — no mutex — which
// is what lets every idle worker probe the injection path on every sweep
// without serializing on a global lock.
func (w *worker) takeInjected() *task {
	rt := w.rt
	if rt.injected.Load() == 0 {
		return nil
	}
	n := len(rt.lanes)
	for i := 0; i < n; i++ {
		if t := rt.lanes[(w.id+i)%n].pop(); t != nil {
			rt.injected.Add(-1)
			rt.rootPicked(t.frame.run)
			w.rec.InjectPickup()
			return t
		}
	}
	return nil
}

// rootPicked records a root's transit from queued to running: per-class
// queue gauges, the Ticket's queue-latency clock, and the admission state
// machine's queued→running transition.
func (rt *Runtime) rootPicked(rs *runState) {
	rt.queuedByClass[rs.qos].Add(-1)
	rs.pickedNs = rt.nanots()
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
	// stolen child: the steal boundary is where its counts get published.
	w.publish()
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

// stealFrom probes one victim: a batch steal first — up to half the victim's
// visible tasks in one CAS, extras landing in this worker's own deque —
// falling back to a single steal when the batch found the deque empty,
// another batch in flight, or lost its race. Exactly one StealSuccess is
// recorded per successful operation, batched or not, so trace event counts
// and the Steals counter agree.
func (w *worker) stealFrom(victim *worker) *task {
	bump(&w.ws.stealAttempts)
	w.rec.StealAttempt(int32(victim.id))
	t, moved := victim.deque.StealBatch(w.deque)
	if t == nil {
		if t = victim.deque.Steal(); t == nil {
			return nil
		}
	}
	bump(&w.ws.steals)
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
	if s := rf.run.stats; s != nil {
		bump(&s.cells[w.id].steals)
	}
	w.rec.StealSuccess(int32(victim.id))
	if moved > 0 {
		bump(&w.ws.stealBatches)
		bumpN(&w.ws.tasksStolenBatched, int64(moved))
		w.rec.StealBatch(int32(moved))
		// The extras are stealable work sitting in our deque now; offer a
		// parked worker the chance to come share it.
		w.rt.wake()
	}
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
// work visible outside the injection queue (a Spawn push, batch-steal
// extras). The fast path is one atomic load; the mutex is taken only when
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
// is why Submit pairs the lane enqueue with an unconditional Signal under
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
	w.publish() // a parked (or exiting) worker's published counts are final
	// Sanitizer: stretch the classic check-then-block window between the
	// last failed sweep and registration as parked.
	w.san.Delay(schedsan.PointPark)
	rt.mu.Lock()
	for {
		if rt.closed && rt.activeRoots == 0 && rt.injected.Load() == 0 {
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

// runTask executes one task to completion: the spawned function's body plus
// its implicit sync, then deposits the frame's reducer views with the parent
// and signals the join (joinChild). Panics are quarantined into the run state
// (cancelling the rest of the run) and the frame's outstanding children are
// still drained, so a failed computation never leaves orphan tasks running
// after Run returns. Tasks of a cancelled run are skipped, not executed —
// the steal/pickup boundary is a cancel check site.
func (w *worker) runTask(t *task) {
	if t.loop != nil {
		w.runPiece(t)
		return
	}
	fn, f := t.fn, t.frame
	// The task is fused into its frame (frame.t) and recycles with it at the
	// bottom of this function; dropping the closure reference here is the
	// only per-task cleanup left.
	t.fn = nil
	rs := f.run
	rs.checkBudget(w) // task start is a budget boundary, like the cancel gate below
	if rs.cancelled() {
		w.skipFrame(f)
		return
	}
	root := f.parent == nil
	if !root {
		w.hot.tasksRun++
	}
	w.hot.frameStart(f.depth)
	if root {
		// A run may sit in its root for as long as it likes without spawning;
		// the live-memory gauge admission consults must see its frame now.
		w.publish()
	}
	if s := rs.stats; s != nil {
		cell := &s.cells[w.id]
		if !root {
			bump(&cell.tasksRun)
		}
		cl := cell.liveFrames.Load() + 1
		cell.liveFrames.Store(cl)
		maxOwn(&cell.maxLiveFrames, cl)
		maxOwn(&cell.maxDepth, int64(f.depth))
	}
	w.rec.TaskStart(f.depth, rs.id)

	// The Context is fused into the frame too: running a task allocates
	// nothing. Only w and rt need (re)binding — the frame link is a
	// self-link preserved across pool lives, and resetFrame zeroed the rest.
	ctx := w.bindContext(f)
	cl := rs.clock
	if cl != nil {
		ctx.strandStart = w.rt.nanots()
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				rs.poison(r)
				w.rec.Panic(f.depth, rs.id)
				ctx.syncWait() // drain children even on panic
			}
		}()
		fn(ctx)
		ctx.Sync() // implicit sync before return (§1)
	}()

	if cl != nil {
		// Close the frame's final strand segment and publish its span. The
		// deposit happens strictly before the join-counter decrement below,
		// so a parent folding after the join observes it; for the root, the
		// store precedes rs.finish()'s done-channel close, which publishes
		// the span to the Run caller.
		ctx.charge(cl)
		ctx.depositSpan(cl)
	}

	p := f.parent
	views := ctx.views
	if p != nil && len(views) > 0 {
		p.depositChildViews(f.ordinal, views)
		views = nil
	}
	// The frame's own work is complete — children joined, views deposited —
	// so this strand owns it exclusively and nothing can reach it through
	// the deque (ring slots no longer retain stale pointers). Recycle it,
	// with its embedded task and Context, and settle the live gauges BEFORE
	// signalling the parent's join (or finishing the root): the decrement
	// and the frame's memory refund thereby happen-before the run's done
	// channel closes, so a run's live-frame and live-byte sums are exactly
	// zero by the time Ticket.Wait returns.
	w.recycleFrame(f)
	w.hot.liveFrames--
	if s := rs.stats; s != nil {
		bumpN(&s.cells[w.id].liveFrames, -1)
	}
	if p != nil {
		w.joinChild(p)
	} else {
		finalizeViews(views)
		w.publish()
		rs.finish()
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
// in program order. Any other child — stolen, a batch-steal extra, picked up
// by an idle worker — pays for the sharing here: it publishes the worker's
// counts, so that they are visible to whoever observes the join, and
// decrements the atomic join word.
func (w *worker) joinChild(p *frame) {
	if p.ctx.w == w {
		p.inline++
		return
	}
	w.publish()
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
	w.hot.tasksSkipped++
	if s := rs.stats; s != nil {
		bump(&s.cells[w.id].tasksSkipped)
	}
	w.rec.TaskSkip(f.depth, rs.id)
	// Recycle before signalling the join (or finishing the root) so the
	// frame's memory refund happens-before the run's done channel closes —
	// same ordering as runTask's completion path.
	p := f.parent
	w.recycleFrame(f)
	if p != nil {
		w.joinChild(p)
	} else {
		w.publish()
		rs.finish()
	}
}
