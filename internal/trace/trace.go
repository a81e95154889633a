// Package trace is the runtime's observability layer: low-overhead
// per-worker event tracing for the parallel scheduler in internal/sched.
//
// Each worker owns a Recorder — a preallocated ring buffer of fixed-size
// events written only by the owning worker goroutine, so the hot path takes
// no locks and allocates nothing. Recording is gated by a single atomic
// "enabled" flag: with tracing off, the cost of an instrumentation site is
// one nil check, a call, one atomic load, and one predictable branch — and
// on a runtime built without a tracer, the inlined nil check alone.
//
// A stopped tracer drains into a Trace — the raw per-worker event
// timelines — from which the package derives two consumable forms:
//
//   - WriteChrome emits Chrome trace-event JSON (one track per worker)
//     viewable in Perfetto or chrome://tracing, the observed-schedule
//     counterpart of Cilkview's predicted parallelism profile.
//   - BuildProfile computes worker utilization over time, a steal-latency
//     histogram (steal-attempt latency in the sense of Khatiri et al.,
//     arXiv:1910.02803), per-worker task/steal counts, and the
//     live-frames high-water series (the Cilkmem-style memory profile,
//     Kaler et al., arXiv:1910.12340).
//
// The scheduler, not this package, decides which events exist; this package
// only defines their encoding and derived views, so it imports nothing but
// the standard library.
package trace

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies a scheduler event. The set mirrors the observable actions
// of one worker: running tasks, spawning, probing victims, picking up
// injected roots, hunting for work, and parking.
type Kind uint8

const (
	// KindTaskStart marks the beginning of a task's execution on a worker.
	// Arg is the frame's spawn depth; Run is the id of the run the task
	// belongs to. Tasks nest: a worker that steals while waiting
	// at a sync records the stolen task inside the enclosing one.
	KindTaskStart Kind = iota
	// KindTaskEnd marks the completion of the most recently started task.
	KindTaskEnd
	// KindSpawn marks a Spawn call: one logical spawn, whether its child was
	// pushed on the worker's deque or ran inline (lazy spawns).
	KindSpawn
	// KindStealAttempt marks one probe of a victim's deque. Arg is the
	// victim's worker id.
	KindStealAttempt
	// KindStealSuccess marks a successful steal. Arg is the victim's id.
	KindStealSuccess
	// KindInjectPickup marks taking a root task from the injection queue.
	KindInjectPickup
	// KindIdleEnter marks the worker running out of work and beginning to
	// hunt (repeated steal sweeps with backoff).
	KindIdleEnter
	// KindIdleExit marks the end of a hunt: the worker found a task.
	KindIdleExit
	// KindPark marks the worker blocking on the runtime condition variable
	// because no computation is active. Park slices nest inside idle ones.
	KindPark
	// KindUnpark marks the worker waking from a park.
	KindUnpark
	// KindTaskSkip marks a task abandoned without executing because its
	// run was cancelled — the trace of work a cancellation avoided. Arg is
	// the frame's spawn depth; Run is the cancelled run's id.
	KindTaskSkip
	// KindPanic marks a panic quarantined inside a task on this worker.
	// Arg is the frame's spawn depth; Run is the poisoned run's id.
	KindPanic
	// KindHuntYield marks a hunt escalating from its spin phase to its
	// yield phase after repeated failed sweeps; the final escalation to the
	// park phase is marked by KindPark/KindUnpark as before.
	KindHuntYield
	// KindLoopSplit marks a stolen lazy-loop range task being halved on this
	// worker (the thief): the back half became a new stealable range task.
	// Arg is the number of iterations in the half that was pushed; Run is the
	// owning run's id.
	KindLoopSplit
	// KindChunkRun marks one grain-sized chunk of a lazy loop executing on
	// this worker. Arg is the chunk's iteration count; Run is the owning run's
	// id.
	KindChunkRun

	numKinds
)

var kindNames = [numKinds]string{
	"task-start", "task-end", "spawn", "steal-attempt", "steal-success",
	"inject-pickup", "idle-enter", "idle-exit", "park", "unpark",
	"task-skip", "panic", "hunt-yield",
	"loop-split", "chunk-run",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one timestamped entry in a worker's timeline. Events are fixed
// size so a ring buffer of them is preallocated storage, never touched by
// the garbage collector during recording.
type Event struct {
	// When is nanoseconds since the tracer's epoch (monotonic clock).
	When int64
	// Run is the id of the submitted run (task-start events), else 0.
	Run int64
	// Arg is the event argument: victim worker id for steal events, spawn
	// depth for task-start events, 0 otherwise.
	Arg int32
	// Kind says what happened.
	Kind Kind
}

// defaultCapacity is the per-worker ring capacity in events (1<<16 events
// × 24 bytes = 1.5 MiB per worker).
const defaultCapacity = 1 << 16

// Option configures a Tracer.
type Option func(*Tracer)

// Capacity sets the per-worker ring-buffer capacity in events, rounded up
// to a power of two (default 65536). When a buffer wraps, the oldest events
// are overwritten and counted as dropped in the drained Trace.
func Capacity(events int) Option {
	return func(t *Tracer) { t.capacity = ceilPow2(events) }
}

func ceilPow2(n int) int {
	if n < 2 {
		return 2
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Tracer owns one Recorder per worker and the shared enabled gate. A Tracer
// is created once per Runtime; Start and Stop bracket recording windows and
// may be cycled any number of times.
type Tracer struct {
	capacity int
	epoch    time.Time
	started  time.Time
	enabled  atomic.Bool
	recs     []*Recorder
	// capMu serializes Capture calls (see Capture).
	capMu sync.Mutex
}

// New creates a tracer with one recorder per worker, initially disabled.
func New(workers int, opts ...Option) *Tracer {
	t := &Tracer{capacity: defaultCapacity}
	for _, o := range opts {
		o(t)
	}
	t.epoch = time.Now()
	t.recs = make([]*Recorder, workers)
	for i := range t.recs {
		t.recs[i] = &Recorder{t: t, buf: make([]Event, t.capacity), mask: int64(t.capacity - 1)}
	}
	return t
}

// Workers reports the number of per-worker recorders.
func (t *Tracer) Workers() int { return len(t.recs) }

// Recorder returns worker i's recorder. The scheduler hands each worker its
// own; all of a worker's events must be recorded from that worker's
// goroutine (single-writer discipline).
func (t *Tracer) Recorder(i int) *Recorder { return t.recs[i] }

// Enabled reports whether the tracer is currently recording.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Start clears the recorders and begins a recording window. Start on an
// already-started tracer is a no-op.
func (t *Tracer) Start() {
	if t.enabled.Load() {
		return
	}
	for _, r := range t.recs {
		r.pos.Store(0)
	}
	t.epoch = time.Now()
	t.started = t.epoch
	t.enabled.Store(true)
}

// Stop ends the recording window and drains the ring buffers into a Trace.
// Stop synchronizes with in-flight recorders (a seqlock per ring), so the
// returned snapshot is race-free even if workers were mid-event; it is safe
// to call while computations are still running, in which case the snapshot
// simply contains unclosed intervals.
func (t *Tracer) Stop() *Trace {
	t.enabled.Store(false)
	for _, r := range t.recs {
		for r.seq.Load()&1 == 1 {
			runtime.Gosched()
		}
	}
	tr := &Trace{
		Epoch:    t.started,
		Duration: time.Since(t.started),
		Workers:  make([][]Event, len(t.recs)),
		Dropped:  make([]int64, len(t.recs)),
	}
	for i, r := range t.recs {
		n := r.pos.Load()
		lo := int64(0)
		if n > int64(len(r.buf)) {
			lo = n - int64(len(r.buf))
		}
		tr.Dropped[i] = lo
		events := make([]Event, 0, n-lo)
		for j := lo; j < n; j++ {
			events = append(events, r.buf[j&r.mask])
		}
		tr.Workers[i] = events
	}
	return tr
}

// Capture records for the given duration and returns the drained window:
// Start, sleep, Stop. It is the capture-on-demand primitive behind the
// /debug/cilk/trace endpoint — a live server can hand out a bounded trace
// without anyone bracketing Start/Stop by hand. A capture resets any
// recording window already in progress (Start clears the rings) and leaves
// the tracer stopped. Concurrent captures are serialized by capMu so two
// simultaneous requests cannot clear each other's windows mid-capture; the
// second caller simply records its own window after the first finishes.
func (t *Tracer) Capture(d time.Duration) *Trace {
	t.capMu.Lock()
	defer t.capMu.Unlock()
	if t.enabled.Load() {
		t.Stop() // discard the in-progress window, quiescing recorders
	}
	t.Start()
	time.Sleep(d)
	return t.Stop()
}

// Recorder is one worker's private event ring. Only the owning worker
// writes; Tracer.Stop reads after quiescing on seq. All methods are safe on
// a nil receiver (they do nothing), so the scheduler can hold a nil
// Recorder when tracing was never configured.
type Recorder struct {
	t    *Tracer
	buf  []Event
	mask int64
	// pos is the count of events ever recorded in this window; the write
	// cursor is pos & mask. Written only by the owning worker; atomic so
	// Stop's drain reads a published value.
	pos atomic.Int64
	// seq is a seqlock: odd while a record is in flight. Stop spins until
	// even after lowering the gate, which both bounds the wait and
	// establishes the happens-before edge that makes the drain race-free.
	seq atomic.Uint64
}

// record appends one event if the tracer is enabled. It is small enough to
// inline into every instrumentation site, so a runtime built without a
// tracer pays a nil test there and no call; a disabled tracer's path is
// that test, a call, one atomic load and a branch.
func (r *Recorder) record(k Kind, arg int32, run int64) {
	if r != nil {
		r.write(k, arg, run)
	}
}

// write is record's path for a runtime that has a tracer.
func (r *Recorder) write(k Kind, arg int32, run int64) {
	if !r.t.enabled.Load() {
		return
	}
	r.seq.Add(1)
	// Re-check under the seqlock: Stop lowers the gate and then waits for
	// seq to go even, so a write that passes this check is always drained
	// after it completes, never concurrently.
	if r.t.enabled.Load() {
		i := r.pos.Load()
		r.buf[i&r.mask] = Event{
			When: int64(time.Since(r.t.epoch)),
			Run:  run,
			Arg:  arg,
			Kind: k,
		}
		r.pos.Store(i + 1)
	}
	r.seq.Add(1)
}

// TaskStart records the beginning of a task at the given spawn depth,
// belonging to the given run.
func (r *Recorder) TaskStart(depth int32, run int64) { r.record(KindTaskStart, depth, run) }

// TaskEnd records the completion of the most recently started task.
func (r *Recorder) TaskEnd() { r.record(KindTaskEnd, 0, 0) }

// Spawn records a Spawn call.
func (r *Recorder) Spawn() { r.record(KindSpawn, 0, 0) }

// StealAttempt records one probe of victim's deque.
func (r *Recorder) StealAttempt(victim int32) { r.record(KindStealAttempt, victim, 0) }

// StealSuccess records a successful steal from victim.
func (r *Recorder) StealSuccess(victim int32) { r.record(KindStealSuccess, victim, 0) }

// HuntYield records a hunt escalating from spinning to yielding between
// sweeps.
func (r *Recorder) HuntYield() { r.record(KindHuntYield, 0, 0) }

// LoopSplit records halving a stolen range task; n is the iteration count of
// the re-published back half.
func (r *Recorder) LoopSplit(n int32, run int64) { r.record(KindLoopSplit, n, run) }

// ChunkRun records executing one grain-sized chunk of n loop iterations.
func (r *Recorder) ChunkRun(n int32, run int64) { r.record(KindChunkRun, n, run) }

// InjectPickup records taking a root task from the injection queue.
func (r *Recorder) InjectPickup() { r.record(KindInjectPickup, 0, 0) }

// IdleEnter records the start of a work hunt.
func (r *Recorder) IdleEnter() { r.record(KindIdleEnter, 0, 0) }

// IdleExit records the end of a work hunt.
func (r *Recorder) IdleExit() { r.record(KindIdleExit, 0, 0) }

// TaskSkip records abandoning a task of a cancelled run without executing
// it, at the given spawn depth.
func (r *Recorder) TaskSkip(depth int32, run int64) { r.record(KindTaskSkip, depth, run) }

// Panic records a panic quarantined inside a task at the given spawn depth.
func (r *Recorder) Panic(depth int32, run int64) { r.record(KindPanic, depth, run) }

// Park records blocking on the runtime's condition variable.
func (r *Recorder) Park() { r.record(KindPark, 0, 0) }

// Unpark records waking from a park.
func (r *Recorder) Unpark() { r.record(KindUnpark, 0, 0) }

// Trace is a drained recording window: per-worker event timelines in
// chronological order, plus how many events each ring overwrote.
type Trace struct {
	// Epoch is the wall-clock instant of Start; event When fields are
	// nanoseconds after it.
	Epoch time.Time
	// Duration is the length of the recording window.
	Duration time.Duration
	// Workers[i] is worker i's timeline, oldest first.
	Workers [][]Event
	// Dropped[i] counts worker i's events lost to ring wraparound (the
	// oldest events are overwritten first).
	Dropped []int64
}

// Events reports the total number of retained events.
func (t *Trace) Events() int {
	n := 0
	for _, ws := range t.Workers {
		n += len(ws)
	}
	return n
}

// TotalDropped reports the total number of overwritten events.
func (t *Trace) TotalDropped() int64 {
	var n int64
	for _, d := range t.Dropped {
		n += d
	}
	return n
}
