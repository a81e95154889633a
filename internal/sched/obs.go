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
//     events — into the run's atomic work accumulator.
//
//   - Span is computed structurally. Each frame tracks its local span (the
//     running span along its own strand, in Context.spanLocal) and the max
//     completed-child span deposited by its children (frame.spanChild). At
//     Spawn the child records the parent's local span as its spawnSpan; at
//     child completion the child deposits spawnSpan + its own total into
//     the parent's spanChild gauge; at Sync the parent folds
//     spanLocal = max(spanLocal, spanChild) — exactly the dag recurrence
//     span(parent) = max(serial path, spawn point + span(child)).
//
//   - Lazy-loop pieces (loop.go) deposit their episode duration against the
//     loop frame keyed at the loop's spawn point, approximating the loop's
//     span as the longest piece episode; the O(log n) split-tree depth is
//     not charged. DESIGN.md §4e quantifies the approximation.
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
// clocks: every Run is timed (strand clocks at spawn/sync/steal boundaries)
// and reported to o at start and end, and the runtime's live latency
// histograms (steal latency, park-to-wake) begin recording. The observed
// overhead is two monotonic clock reads per spawn and per sync; a runtime
// without an observer pays one nil check per boundary.
func WithRunObserver(o RunObserver) Option {
	return func(c *config) { c.observer = o }
}

// RunObserver returns the observer installed by WithRunObserver, or nil.
func (rt *Runtime) RunObserver() RunObserver { return rt.cfg.observer }

// runClock is one run's online work/span accounting. Work accumulates
// concurrently from every worker that executes the run's strands; span is
// written once, by the worker that completes the root frame, strictly
// before the run's done channel closes (which is what publishes it to the
// Run caller).
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

// charge closes the strand segment open since c.strandStart: its duration
// joins the run's work and the frame's local span, and a new segment opens.
// Called at every parallel-control boundary of an observed run (Spawn,
// Sync entry, task completion); callers gate on cl != nil.
func (c *Context) charge(cl *runClock) {
	now := c.rt.nanots()
	if d := now - c.strandStart; d > 0 {
		c.spanLocal += d
		cl.work.Add(d)
	}
	c.strandStart = now
}

// foldSpanChildren folds the frame's completed-child span gauge into the
// strand's local span at a sync boundary, and resets the gauge for the next
// sync region. Must run only after the join counter reached zero.
func (c *Context) foldSpanChildren() {
	f := c.frame
	if sc := f.spanChild.Load(); sc > c.spanLocal {
		c.spanLocal = sc
	}
	f.spanChild.Store(0)
}

// depositSpan publishes this frame's completed span to its parent (or, for
// the root, to the run's clock): the frame's spawn-point span plus
// everything accumulated along and under it. The parent gauge keeps the
// CAS-loop maxStore — unlike the sharded stats cells (single-writer
// load+store, see stats.go), spanChild genuinely has concurrent writers:
// siblings completing on different workers deposit into the same parent.
func (c *Context) depositSpan(cl *runClock) {
	f := c.frame
	total := f.spawnSpan + c.spanLocal
	if p := f.parent; p != nil {
		maxStore(&p.spanChild, total)
	} else {
		cl.span.Store(total)
	}
}
