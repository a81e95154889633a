package sched

// This file is the runtime's online Cilkview layer: work/span accounting
// during *parallel* execution, per-run observation callbacks, and the live
// latency histograms behind /metrics.
//
// The offline Cilkview (internal/cilkview) measures work and span from a
// serial-elision replay with timing hooks — exact, but post-hoc and serial.
// The online path measures the same quantities while the parallel schedule
// runs, using per-strand clocks aggregated at the dag's control boundaries:
//
//   - Work is the sum of all strand-segment durations. Every worker charges
//     the segment it just executed — the code between two parallel-control
//     events — into a plain per-worker accumulator for the run (runMirror,
//     stats.go), flushed into the run's clock with one atomic add when the
//     worker flushes it (flushRun) or switches runs.
//
//   - Span is computed structurally. Each frame tracks its local span (the
//     running span along its own strand, in Context.spanLocal) and the max
//     completed-child span deposited by its children (frame.spanInline for
//     children that joined on the frame's own strand, frame.spanChild for
//     the rest). At Spawn the child records the parent's local span as its
//     spawnSpan; at child completion the child deposits spawnSpan + its own
//     total into the parent; at Sync the parent folds
//     spanLocal = max(spanLocal, child spans) — exactly the dag recurrence
//     span(parent) = max(serial path, spawn point + span(child)).
//
//   - A scheduled lazy-loop piece (loop.go) runs each episode in a piece
//     frame whose spawnSpan is the loop's creation-point span, so the
//     episode deposits into the loop frame like any child: the loop's span
//     is approximated as its longest piece episode, and the O(log n)
//     split-tree depth is not charged. DESIGN.md §4e quantifies the
//     approximation.
//
// The clock is read only where user code stops: at a Spawn (and a loop's
// creation), at a Sync that has something to join, and at the end of a task
// or loop episode. Where user code resumes — a task's or episode's start,
// the continuation after a Sync's wait — the worker reuses its last read
// (worker.clk): only runtime code ran since. A steal sweep — which every
// sleep, yield and park of a worker follows — invalidates that read, and so
// does a root's finish (the observer's RunEnd is user code), so the next
// resume reads afresh and idle time is never charged. A Sync
// whose region spawned nothing and started no loop is no boundary at all:
// the open segment simply continues. An un-stolen observed spawn+sync thus
// costs three clock reads (spawn, child end, parent sync) and no shared
// write.
//
// Time spent *waiting* at a sync (syncWait steals and runs other tasks) is
// excluded from both clocks, mirroring the dag model where a sync edge has
// zero weight. Clocks are armed per run, only when the runtime carries a
// RunObserver — a runtime without one pays a single nil check per boundary,
// the same gating discipline as the tracer, the cancel gate, and the
// sanitizer.

import (
	"sync/atomic"
	"time"

	"cilkgo/internal/trace"
)

// RunReport is the terminal record of one observed Run: identity, wall
// times, the per-run Stats snapshot (including online Work and Span), and
// the error the run returned, if any.
type RunReport struct {
	// ID is the Run invocation id, matching trace event attribution.
	ID int64
	// Start and End bracket the run's wall-clock lifetime.
	Start, End time.Time
	// Stats is the run's final per-computation snapshot; Stats.Work and
	// Stats.Span carry the online work/span measurement.
	Stats Stats
	// Err is what the run reported: nil, a cancellation sentinel, or a
	// *PanicError.
	Err error
	// Tenant and Class echo the submission's WithTenant/WithQoS options
	// ("" and QoSBatch by default); Queued is how long the root waited in
	// the injection queue before pickup.
	Tenant string
	Class  QoSClass
	Queued time.Duration
}

// RunObserver receives per-run lifecycle callbacks from the runtime. Both
// methods may be called concurrently (runs overlap) and must not block the
// scheduler: RunStart fires on the submitting goroutine before the root is
// injected, RunEnd on the worker completing the run's root, strictly before
// the run's Ticket settles (so a caller returning from Wait finds the run
// reported). internal/obs.Registry is the canonical implementation.
type RunObserver interface {
	RunStart(id int64, start time.Time)
	RunEnd(RunReport)
}

// WithRunObserver installs a run observer and arms the online work/span
// clocks: every Run is timed (strand clocks at spawn/sync boundaries) and
// reported to o at start and end, and the runtime's live latency histograms
// (steal latency, park-to-wake) begin recording. The observed overhead is
// three monotonic clock reads per spawn+sync pair (the spawn, the child's
// end, the sync) plus plain per-worker accumulation; a runtime without an
// observer pays one nil check per boundary.
func WithRunObserver(o RunObserver) Option {
	return func(c *config) { c.observer = o }
}

// RunObserver returns the observer installed by WithRunObserver, or nil.
func (rt *Runtime) RunObserver() RunObserver { return rt.cfg.observer }

// runClock is one run's online work/span accounting. Work accumulates from
// every worker that executes the run's strands, one flush of the worker's
// runMirror at a time; span is written once, by the worker that completes
// the root frame, strictly before the run's done channel closes (which is
// what publishes it to the Run caller).
type runClock struct {
	work atomic.Int64
	span atomic.Int64
}

// obsHist bundles the runtime-wide live latency histograms recorded while
// an observer is installed. Exported snapshots feed the Prometheus
// endpoint.
type obsHist struct {
	// steal is the hunt-to-successful-steal latency: from the worker
	// running dry (hunt start) to a steal landing. The online counterpart
	// of the offline profile's StealLatency histogram.
	steal *trace.LiveHistogram
	// parkWake is the park-to-wake latency: from a worker blocking on the
	// runtime condition variable to its wakeup — the tail every
	// wakeup-path fix in PR 3 was about.
	parkWake *trace.LiveHistogram
}

func newObsHist() *obsHist {
	return &obsHist{
		steal:    trace.NewLiveHistogram(nil),
		parkWake: trace.NewLiveHistogram(nil),
	}
}

// LatencyHistograms returns snapshots of the runtime's live latency
// histograms, keyed by metric name ("steal_latency", "park_to_wake"). The
// map is empty on a runtime without a RunObserver (the histograms record
// only while observation is armed).
func (rt *Runtime) LatencyHistograms() map[string]trace.Histogram {
	m := make(map[string]trace.Histogram, 2)
	if h := rt.obsH; h != nil {
		m["steal_latency"] = h.steal.Snapshot()
		m["park_to_wake"] = h.parkWake.Snapshot()
	}
	return m
}

// nanots returns nanoseconds since the runtime's observation epoch, via the
// monotonic clock.
func (rt *Runtime) nanots() int64 { return int64(time.Since(rt.obsEpoch)) }

// resumeClock opens a strand segment where user code resumes: at the
// worker's last clock read, since only runtime code ran after it, or at a
// fresh read when that one was invalidated (clk == 0) because the worker
// may have idled since.
func (w *worker) resumeClock() {
	if w.clk == 0 {
		w.clk = w.rt.nanots()
	}
}

// charge closes the strand segment open since the worker's last clock
// read: its duration joins the run's work (in the worker's run mirror) and
// the frame's local span, and the read opens the next segment. Called
// where user code stops on an observed run (Spawn, a Sync with something
// to join, task and episode completion); callers gate on the run's clock
// being armed. While a strand runs, nothing else on its worker reads the
// clock except that strand's own boundaries and, inside its syncs, tasks
// that end with a read of their own — so the worker's last read is always
// the open segment's start, and a Context needs no clock of its own.
func (c *Context) charge() {
	w := c.w
	now := w.rt.nanots()
	if d := now - w.clk; d > 0 {
		c.spanLocal += d
		w.acct(c.frame.run).work += d
	}
	w.clk = now
}

// resumeSync reopens the strand after a sync's wait and folds the frame's
// completed-child span gauges into the strand's local span, resetting them
// for the next sync region. Must run only after the join counter reached
// zero. The continuation resumes from the worker's last read: the last task
// the wait ran ended on it, or the wait idled and invalidated it. The
// shared gauge is stored to only when an off-strand child raised it.
func (c *Context) resumeSync() {
	c.w.resumeClock()
	f := c.frame
	sc := f.spanInline
	f.spanInline = 0
	if x := f.spanChild.Load(); x != 0 {
		if x > sc {
			sc = x
		}
		f.spanChild.Store(0)
	}
	if sc > c.spanLocal {
		c.spanLocal = sc
	}
}

// depositSpan publishes this frame's completed span to its parent (or, for
// the root, to the run's clock): the frame's spawn-point span plus
// everything accumulated along and under it.
func (c *Context) depositSpan(cl *runClock) {
	f := c.frame
	total := f.spawnSpan + c.spanLocal
	if p := f.parent; p != nil {
		p.depositChildSpan(c.w, total)
	} else {
		cl.span.Store(total)
	}
}

// depositChildSpan raises f's completed-child span to total on behalf of a
// child or loop episode that completed on worker w. A child completing on
// f's own strand (f.ctx.w == w, joinChild's test: same worker, same
// goroutine, read by f's Sync in program order) takes the plain max. Any
// other keeps the CAS-loop maxStore — unlike the sharded stats cells,
// spanChild genuinely has concurrent writers: siblings completing on
// different workers deposit into the same parent.
func (f *frame) depositChildSpan(w *worker, total int64) {
	if f.ctx.w == w {
		if total > f.spanInline {
			f.spanInline = total
		}
		return
	}
	maxStore(&f.spanChild, total)
}
