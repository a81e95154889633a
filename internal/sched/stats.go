package sched

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// workerStats are the counters of a worker that belong to no run: steal
// probes and failed sweeps (a probe that finds nothing has no run to
// charge), the frame recycler's traffic and off-strand joins. They are
// atomic cells the owning worker bumps in place and Stats, Metrics and the
// watchdog read from any goroutine. Every other count belongs to a run: it
// is counted in the run's cells (runCell) and reaches the runtime-wide
// figures from there (Runtime.cellTotals).
type workerStats struct {
	stealAttempts atomic.Int64
	failedSweeps  atomic.Int64
	poolRefills   atomic.Int64
	poolSpills    atomic.Int64
	// offStrandJoins counts children this worker completed off their
	// parent's strand (see joinChild) — the joins that pay for an atomic.
	// Not part of Stats; tests read it to show un-stolen spawns pay nothing.
	offStrandJoins atomic.Int64
}

// hotStats are the counters a spawn, a task or a chunk touches: plain fields
// of the worker's run mirror (runMirror), which only the owning worker reads
// or writes, stored into the runCell fields of the same names by flushRun. An
// atomic Store is an XCHG on amd64 — as costly as a LOCK'd add — so counting
// in the cells directly would make every one of these increments a locked
// instruction on the spawn path.
type hotStats struct {
	spawns        int64
	pushes        int64
	tasksRun      int64
	tasksSkipped  int64
	chunksPeeled  int64
	liveFrames    int64
	maxLiveFrames int64
	maxDepth      int64
}

// runCell is one worker's shard of a run's counters — the only place the
// runtime counts spawns, tasks, chunks, live frames, steals, splits and live
// bytes; the runtime-wide figures are folded from the cells (finish,
// Runtime.cellTotals). Each cell is written only by the worker whose id
// indexes it (a serial run's strand worker has id 0), and because cells of
// different workers sit on different cache lines (the pad below), there is
// no shared cacheline traffic. Readers sum the counters and max the gauges
// across cells; the atomics make those cross-thread reads well-defined.
type runCell struct {
	// The hotStats counters, counted in the worker's run mirror and stored
	// here only when the worker flushes or switches runs (storeHot).
	spawns, pushes, tasksRun, tasksSkipped, chunksPeeled atomic.Int64
	liveFrames, maxLiveFrames, maxDepth                  atomic.Int64
	// The steal-path counters, bumped in place.
	steals, loopSplits, rangeSteals atomic.Int64
	// memLive is the run's byte balance charged by this cell's worker (see
	// memory.go): queued and called frames and Context.Charge
	// declarations, counted in the run mirror and written through on a
	// budgeted run. Refunds may land in a different cell than their
	// charge, so memLive can go negative; only the cross-cell sum means
	// anything. memPeak is the watermark of memLive plus the cell's live
	// frames' bytes.
	memLive, memPeak atomic.Int64
	_                [24]byte // pad 13×8 B of counters to two 64 B cache lines
}

// storeHot mirrors h into the cell. Cells already current are not stored
// to, so a hunting worker's repeated flushes are loads only.
func (c *runCell) storeHot(h *hotStats) {
	publishTo(&c.spawns, h.spawns)
	publishTo(&c.pushes, h.pushes)
	publishTo(&c.tasksRun, h.tasksRun)
	publishTo(&c.tasksSkipped, h.tasksSkipped)
	publishTo(&c.chunksPeeled, h.chunksPeeled)
	publishTo(&c.liveFrames, h.liveFrames)
	publishTo(&c.maxLiveFrames, h.maxLiveFrames)
	publishTo(&c.maxDepth, h.maxDepth)
}

// cellTotals is a runCell's counts in plain fields: one cell read back
// (runCell.load), or one worker's cells summed over runs (Runtime.retired,
// Runtime.cellTotals).
type cellTotals struct {
	hotStats
	steals      int64
	loopSplits  int64
	rangeSteals int64
	memLive     int64
	memPeak     int64
}

// load reads the cell back into plain fields.
func (c *runCell) load() cellTotals {
	return cellTotals{
		hotStats: hotStats{
			spawns:        c.spawns.Load(),
			pushes:        c.pushes.Load(),
			tasksRun:      c.tasksRun.Load(),
			tasksSkipped:  c.tasksSkipped.Load(),
			chunksPeeled:  c.chunksPeeled.Load(),
			liveFrames:    c.liveFrames.Load(),
			maxLiveFrames: c.maxLiveFrames.Load(),
			maxDepth:      c.maxDepth.Load(),
		},
		steals:      c.steals.Load(),
		loopSplits:  c.loopSplits.Load(),
		rangeSteals: c.rangeSteals.Load(),
		memLive:     c.memLive.Load(),
		memPeak:     c.memPeak.Load(),
	}
}

// add folds o into t: the counts and the two live gauges are summed, the
// watermarks maxed.
func (t *cellTotals) add(o cellTotals) {
	t.spawns += o.spawns
	t.pushes += o.pushes
	t.tasksRun += o.tasksRun
	t.tasksSkipped += o.tasksSkipped
	t.chunksPeeled += o.chunksPeeled
	t.liveFrames += o.liveFrames
	t.maxLiveFrames = max(t.maxLiveFrames, o.maxLiveFrames)
	t.maxDepth = max(t.maxDepth, o.maxDepth)
	t.steals += o.steals
	t.loopSplits += o.loopSplits
	t.rangeSteals += o.rangeSteals
	t.memLive += o.memLive
	t.memPeak = max(t.memPeak, o.memPeak)
}

// liveBytes is the cell's share of its run's live memory (see memory.go):
// its running frames plus its charged bytes.
func (t *cellTotals) liveBytes() int64 {
	return t.memLive + t.liveFrames*frameMemBytes
}

// cellTotals returns every worker's counts over all runs, one entry per
// cell index: the retired totals of the finished runs plus the cells of the
// active ones. finish moves a run from one to the other under mu, which is
// held here too, so every run is counted exactly once.
func (rt *Runtime) cellTotals() []cellTotals {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := slices.Clone(rt.retired)
	for rs := range rt.active {
		for i := range rs.cells {
			out[i].add(rs.cells[i].load())
		}
	}
	return out
}

// runMirror is the worker's plain copy of its own cell of the one run it is
// currently accounting for, plus the work that run's strands have charged
// on this worker since the last flush. Each runCell has one writer — this
// worker — so the mirror can start from the cell's current values when the
// worker switches runs. The mirror is flushed into the cell (and the work
// into the run's clock) by flushRun and on a run switch.
type runMirror struct {
	// rs is the run mirrored; nil before the worker's first run. It stays
	// set after that run ends, until the next switch: a worker keeps at most
	// one finished runState alive.
	rs *runState
	c  hotStats
	// memLive/memPeak mirror the cell's memory shard (see chargeMem in
	// memory.go).
	memLive int64
	memPeak int64
	// work is the observed run's strand time charged on this worker and not
	// yet added to rs.clock.work.
	work int64
}

// acct returns the worker's mirror of rs's cell, switching the mirror to rs
// first if it holds another run.
func (w *worker) acct(rs *runState) *runMirror {
	if w.mr.rs != rs {
		w.switchRun(rs)
	}
	return &w.mr
}

// switchRun flushes the mirror and reloads it from rs's cell. Every switch
// the scheduler makes follows a flush — a task that ends off its parent's
// strand, a root's finish, a steal sweep — so the flush finds nothing
// pending; it keeps the accounting exact should a path ever switch without
// one.
func (w *worker) switchRun(rs *runState) {
	w.flushRun() // leaves work at 0
	t := rs.cells[w.id].load()
	m := &w.mr
	m.rs = rs
	m.c = t.hotStats
	m.memLive, m.memPeak = t.memLive, t.memPeak
}

// publishEvery bounds how stale the cells of a worker that neither steals
// nor joins off-strand can get: it flushes at every publishEvery-th spawn
// and chunk of a run.
const publishEvery = 1024

// flushRun stores the mirror into its run's cell and adds the pending work
// to the run's clock with a single atomic add. Called by the worker itself
// wherever its work becomes visible to another goroutine — before an
// off-strand join, before a root's finish, before a steal sweep and before
// parking — and every publishEvery spawns or chunks. So when a run finishes
// its cells are exact: by induction over the spawn tree, a task's counts
// are flushed either by its own off-strand join or, if it joined on its
// parent's strand, by whatever flushes the parent's.
func (w *worker) flushRun() {
	m := &w.mr
	rs := m.rs
	if rs == nil {
		return
	}
	cell := &rs.cells[w.id]
	cell.storeHot(&m.c)
	publishTo(&cell.memLive, m.memLive)
	publishTo(&cell.memPeak, m.memPeak)
	if m.work != 0 {
		rs.clock.work.Add(m.work)
		m.work = 0
	}
}

func publishTo(c *atomic.Int64, v int64) {
	if c.Load() != v {
		c.Store(v)
	}
}

// frameStart counts a frame going live on this worker at spawn depth depth,
// and raises the live-byte watermark the frame may have lifted.
func (m *runMirror) frameStart(depth int32) {
	h := &m.c
	h.liveFrames++
	h.maxLiveFrames = max(h.maxLiveFrames, h.liveFrames)
	h.maxDepth = max(h.maxDepth, int64(depth))
	m.raisePeak()
}

// bump adds 1 to a single-writer atomic counter with a load and a store
// rather than a read-modify-write. Correct only because every
// workerStats/runCell field has exactly one writing goroutine at a time (the
// owning worker, a serial run's strand included); readers still get
// tear-free values through the atomics. The store is still a locked instruction (XCHG), so bump is
// for the steal path; the spawn path counts in hotStats.
func bump(c *atomic.Int64) {
	c.Store(c.Load() + 1)
}

// maxStore raises the max-gauge m to v. The CAS loop makes it correct under
// concurrent writers: the span gauges (frame.spanChild) are deposited by
// whichever workers complete the frame's children, so a plain
// load-then-store could regress the gauge when two workers race. The
// single-writer watermarks are raised in the worker's run mirror instead.
func maxStore(m *atomic.Int64, v int64) {
	for {
		old := m.Load()
		if v <= old || m.CompareAndSwap(old, v) {
			return
		}
	}
}

// Stats summarizes scheduler activity since the runtime was created.
type Stats struct {
	// Spawns is the number of Spawn calls that created a child — the
	// logical spawns of the dag (a Spawn on an already cancelled run is a
	// no-op and is not counted). Pushed is how many of those children were
	// pushed onto a deque, where a thief could take them; the rest ran
	// inline at their Spawn (lazy spawns: a child is pushed only when the
	// spawning worker's deque is empty). Pushed ≤ Spawns, and Pushed is 0
	// on a serial-elision runtime.
	Spawns int64
	Pushed int64
	// Steals counts successful steals; StealAttempts counts all steal
	// probes, successful or not. The ratio Steals/Spawns is the empirical
	// measure behind §3.2's claim that "stealing is infrequent" when
	// parallelism exceeds the worker count.
	Steals        int64
	StealAttempts int64
	// FailedSweeps counts steal sweeps that probed every other worker and
	// found nothing — the consecutive-failure signal that escalates a
	// worker's hunt from spinning through yielding to parking. Also zero in
	// per-run results, like StealAttempts.
	FailedSweeps int64
	// TasksRun is the number of spawned tasks and scheduled loop pieces
	// executed (excluding submitted roots). Absent lazy loops it equals
	// Spawns once all submitted computations finish, provided none were
	// cancelled (see TasksSkipped).
	TasksRun int64
	// TasksSkipped is the number of tasks abandoned without executing
	// because their run was cancelled (by context, deadline, a sibling
	// panic, or ShutdownDrain). Spawns = TasksRun + TasksSkipped at
	// quiescence.
	TasksSkipped int64
	// MaxLiveFrames is the maximum, over workers, of one run's
	// simultaneously live frames on one worker — the runtime's analogue of
	// per-worker stack depth in the §3.1 space discussion. In the
	// runtime-wide Stats() it is the maximum over runs of those per-worker
	// peaks: frames of concurrent runs live on one worker are not added up.
	MaxLiveFrames int64
	// MaxDepth is the deepest spawn depth observed.
	MaxDepth int64
	// Lazy-loop counters (see internal/sched/loop.go). ChunksPeeled counts
	// grain-sized chunks executed; it is the loop analogue of iterations/grain
	// and is schedule-independent. RangeSteals counts steals whose prize was a
	// range task, and LoopSplits counts the halvings those steals triggered —
	// together they measure how far the lazy split tree actually unfolded
	// (1 + LoopSplits range tasks ever existed per loop, vs Θ(n/grain) tasks
	// under eager splitting).
	LoopSplits   int64
	ChunksPeeled int64
	RangeSteals  int64
	// Frame-recycler counters (see frame.go). PoolSpills counts batches of
	// frameBatchSize frames a worker's full freelist handed to the global
	// backstop; PoolRefills counts batches a dry freelist took back. Both
	// are rare by design — a spawn/sync region that fits in the local cap
	// recycles frames with no global traffic at all — so a spike flags a
	// workload whose producers and consumers are different workers (steal-
	// heavy, or deep unbalanced trees). Zero in per-run results:
	// recycling is a property of the worker, not of one computation.
	PoolRefills int64
	PoolSpills  int64
	// Stalls counts no-global-progress windows detected by the sanitizer's
	// stall watchdog (see schedsan.Options.StallAfter). Always zero on a
	// runtime built without WithSanitize or without a watchdog threshold.
	Stalls int64
	// MemLiveBytes and MemPeakBytes are the memory accounting gauges (see
	// memory.go): live frame bytes plus the net Context.Charge balance, and
	// the run's measured high-water mark. In a per-run snapshot (Ticket.Stats)
	// MemLiveBytes is read at quiescence, so it is the run's unrefunded
	// Charge balance — 0 for a balanced program — and MemPeakBytes is the
	// peak the admission EWMA feeds on. In the runtime-wide Stats(),
	// MemLiveBytes is the instantaneous cross-run gauge
	// (Runtime.MemLiveBytes) and MemPeakBytes is zero (peaks are a per-run
	// notion). Both are watermark/gauge-like: Sub keeps the newer snapshot's
	// values.
	MemLiveBytes int64
	MemPeakBytes int64
	// Work and Span are the run's online work (T1) and span (T∞), measured
	// during the parallel execution itself by per-strand clocks aggregated
	// at spawn/sync boundaries (see obs.go). Populated only in the Stats of
	// an observed run (WithRunObserver) — zero otherwise, and always zero in
	// the runtime-wide aggregate Stats(), which spans many runs. Work/Span
	// is the run's measured parallelism (the online Cilkview estimate).
	Work time.Duration
	Span time.Duration
}

// Stats sums the counters of every run the runtime has executed, finished
// or in flight, plus the workers' own steal-probe and recycler counters. A
// computation's counts are all included once its Ticket.Wait has returned;
// while it is in flight each worker's spawn, task, chunk and live-frame
// counts for it may trail by up to 1024 spawns or chunks (see flushRun).
func (rt *Runtime) Stats() Stats { return rt.statsOf(rt.cellTotals()) }

// statsOf folds the per-worker totals cells into the runtime-wide Stats.
func (rt *Runtime) statsOf(cells []cellTotals) Stats {
	var s Stats
	for i := range cells {
		s.addCell(&cells[i])
	}
	for _, w := range rt.workers {
		s.StealAttempts += w.ws.stealAttempts.Load()
		s.FailedSweeps += w.ws.failedSweeps.Load()
		s.PoolRefills += w.ws.poolRefills.Load()
		s.PoolSpills += w.ws.poolSpills.Load()
	}
	s.Stalls = rt.stalls.Load()
	return s
}

// addCell folds one cell's counts into s: the counts and the live bytes are
// summed and the two frame gauges maxed, across a run's cells
// (runState.snapshot) or across workers (statsOf).
func (s *Stats) addCell(c *cellTotals) {
	s.Spawns += c.spawns
	s.Pushed += c.pushes
	s.TasksRun += c.tasksRun
	s.TasksSkipped += c.tasksSkipped
	s.ChunksPeeled += c.chunksPeeled
	s.MaxLiveFrames = max(s.MaxLiveFrames, c.maxLiveFrames)
	s.MaxDepth = max(s.MaxDepth, c.maxDepth)
	s.Steals += c.steals
	s.LoopSplits += c.loopSplits
	s.RangeSteals += c.rangeSteals
	s.MemLiveBytes += c.liveBytes()
}

// Sub returns the counter deltas s − prev, for snapshot-style accounting
// around a region of interest (take Stats before and after, subtract). The
// max gauges MaxLiveFrames and MaxDepth are watermarks, not counters — a
// delta is meaningless — so Sub keeps s's values for them.
func (s Stats) Sub(prev Stats) Stats {
	s.Spawns -= prev.Spawns
	s.Pushed -= prev.Pushed
	s.Steals -= prev.Steals
	s.StealAttempts -= prev.StealAttempts
	s.FailedSweeps -= prev.FailedSweeps
	s.TasksRun -= prev.TasksRun
	s.TasksSkipped -= prev.TasksSkipped
	s.LoopSplits -= prev.LoopSplits
	s.ChunksPeeled -= prev.ChunksPeeled
	s.RangeSteals -= prev.RangeSteals
	s.PoolRefills -= prev.PoolRefills
	s.PoolSpills -= prev.PoolSpills
	s.Stalls -= prev.Stalls
	// MemLiveBytes and MemPeakBytes are gauges/watermarks like MaxLiveFrames:
	// deltas are meaningless, keep s's values.
	s.Work -= prev.Work
	s.Span -= prev.Span
	return s
}

// Metrics returns the runtime's counters as a flat name → value map in
// expvar style, suitable for publishing from a long-running server (see
// cilkgo.PublishExpvar): the aggregate Stats fields in snake_case plus
// per-worker spawn/steal/task breakdowns, worker count, and whether the
// tracer is currently recording.
func (rt *Runtime) Metrics() map[string]int64 {
	cells := rt.cellTotals()
	s := rt.statsOf(cells)
	m := map[string]int64{
		"workers":        int64(rt.cfg.workers),
		"spawns":         s.Spawns,
		"pushes":         s.Pushed,
		"steals":         s.Steals,
		"steal_attempts": s.StealAttempts,
		"failed_sweeps":  s.FailedSweeps,
		"tasks_run":      s.TasksRun,
		"tasks_skipped":  s.TasksSkipped,
		"loop_splits":    s.LoopSplits,
		"chunks_peeled":  s.ChunksPeeled,
		"range_steals":   s.RangeSteals,
		// Frame-recycler traffic (frame.go): batches spilled to / refilled
		// from the global backstop by the per-worker freelists.
		"pool_refills":    s.PoolRefills,
		"pool_spills":     s.PoolSpills,
		"max_live_frames": s.MaxLiveFrames,
		"max_depth":       s.MaxDepth,
		"runs_submitted":  rt.runIDs.Load(),
		// Robustness-layer counters: runs abandoned by cancellation (any
		// cause) and panics quarantined across all runs.
		"runs_canceled":      rt.runsCanceled.Load(),
		"panics_quarantined": rt.panicsQuarantined.Load(),
		// Serving-layer gauges and counters (see submit.go): roots queued in
		// the injection queue right now, and cumulative admission outcomes.
		"inject_queued": rt.injected.Load(),
		// Memory layer (memory.go): the live gauge and runs cancelled for
		// exceeding their budget (per-run budgets plus hard-watermark sheds).
		"mem_live_bytes":     s.MemLiveBytes,
		"mem_budget_cancels": rt.memBudgetCancels.Load(),
	}
	if a := rt.adm; a != nil {
		a.mu.Lock()
		m["runs_running"] = int64(a.running)
		m["admission_admitted"] = a.admitted
		m["admission_rejected_load"] = a.rejectedLoad
		m["admission_rejected_quota"] = a.rejectedQuota
		m["mem_pressure_rejected"] = a.rejectedMemory
		a.mu.Unlock()
	}
	queued := rt.inject.lens()
	for c := 0; c < numQoS; c++ {
		// Underscored class names: these keys feed the Prometheus exposition,
		// whose metric names admit neither dots nor dashes.
		m["queued_"+strings.ReplaceAll(QoSClass(c).String(), "-", "_")] = int64(queued[c])
	}
	if s.Stalls > 0 || rt.san != nil {
		m["stalls"] = s.Stalls
	}
	if san := rt.san; san != nil {
		san.mu.Lock()
		m["san_violations"] = san.violations
		san.mu.Unlock()
		m["san_faults_injected"] = san.inj.TotalFired()
	}
	for i, c := range cells {
		p := fmt.Sprintf("worker.%d.", i)
		m[p+"spawns"] = c.spawns
		m[p+"steals"] = c.steals
		m[p+"tasks_run"] = c.tasksRun
		m[p+"max_live_frames"] = c.maxLiveFrames
		// A serial runtime's one cell is its runs' strand worker, which
		// probes no victims.
		if i < len(rt.workers) {
			m[p+"steal_attempts"] = rt.workers[i].ws.stealAttempts.Load()
			m[p+"failed_sweeps"] = rt.workers[i].ws.failedSweeps.Load()
		}
	}
	if rt.tracer != nil {
		m["trace_enabled"] = 0
		if rt.tracer.Enabled() {
			m["trace_enabled"] = 1
		}
	}
	return m
}
