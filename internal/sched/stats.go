package sched

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// workerStats are a worker's published counters: atomic cells that Stats,
// Metrics and the watchdog read from any goroutine. The steal-path counters
// are bumped in place; the spawn-path ones (the hotStats fields) are only
// ever written by publish.
type workerStats struct {
	spawns             atomic.Int64
	steals             atomic.Int64
	stealAttempts      atomic.Int64
	stealBatches       atomic.Int64
	tasksStolenBatched atomic.Int64
	failedSweeps       atomic.Int64
	tasksRun           atomic.Int64
	tasksSkipped       atomic.Int64
	liveFrames         atomic.Int64
	maxLiveFrames      atomic.Int64
	maxDepth           atomic.Int64
	loopSplits         atomic.Int64
	chunksPeeled       atomic.Int64
	rangeSteals        atomic.Int64
	poolRefills        atomic.Int64
	poolSpills         atomic.Int64
	// offStrandJoins counts children this worker completed off their
	// parent's strand (see joinChild) — the joins that pay for an atomic.
	// Not part of Stats; tests read it to show un-stolen spawns pay nothing.
	offStrandJoins atomic.Int64
	// memLive is the worker's net Context.Charge balance across all runs,
	// armed or not — together with liveFrames it feeds the runtime-wide
	// live-memory gauge (Runtime.MemLiveBytes) the admission watermarks
	// consult. Like the per-run cells, refunds may land on a different
	// worker than their charge, so a single worker's value can go negative.
	memLive atomic.Int64
}

// hotStats are the counters a spawn, a task or a chunk touches: plain fields
// only the owning worker reads or writes, mirrored into the workerStats
// cells of the same names by publish. An atomic Store is an XCHG on amd64 —
// as costly as a LOCK'd add — so counting in the published cells directly
// made every one of these increments a locked instruction on the spawn path.
type hotStats struct {
	spawns        int64
	tasksRun      int64
	tasksSkipped  int64
	chunksPeeled  int64
	liveFrames    int64
	maxLiveFrames int64
	maxDepth      int64
}

// publishEvery bounds how stale the published counters of a worker that
// neither steals nor joins off-strand can get: it publishes at every
// publishEvery-th spawn and chunk.
const publishEvery = 1024

// publish mirrors the worker's hotStats into its workerStats cells. Called
// by the worker itself wherever its work becomes visible to another
// goroutine — before an off-strand join, before a root's finish, before a
// steal sweep and before parking — and every publishEvery spawns or chunks.
// So when Ticket.Wait returns the run's counts are exact: by induction over
// the spawn tree, a task's counts are published either by its own off-strand
// join or, if it joined on its parent's strand, by whatever publishes the
// parent's. Cells already current are not stored to, so a hunting worker's
// repeated publishes are loads only.
func (w *worker) publish() {
	h, ws := &w.hot, &w.ws
	publishTo(&ws.spawns, h.spawns)
	publishTo(&ws.tasksRun, h.tasksRun)
	publishTo(&ws.tasksSkipped, h.tasksSkipped)
	publishTo(&ws.chunksPeeled, h.chunksPeeled)
	publishTo(&ws.liveFrames, h.liveFrames)
	publishTo(&ws.maxLiveFrames, h.maxLiveFrames)
	publishTo(&ws.maxDepth, h.maxDepth)
}

func publishTo(c *atomic.Int64, v int64) {
	if c.Load() != v {
		c.Store(v)
	}
}

// frameStart counts a frame going live on this worker at spawn depth depth.
func (h *hotStats) frameStart(depth int32) {
	h.liveFrames++
	if h.liveFrames > h.maxLiveFrames {
		h.maxLiveFrames = h.liveFrames
	}
	if d := int64(depth); d > h.maxDepth {
		h.maxDepth = d
	}
}

// bump adds 1 to a single-writer atomic counter with a load and a store
// rather than a read-modify-write. Correct only because every
// workerStats/runCell field has exactly one writing goroutine (the owning
// worker, or the serial strand); readers still get tear-free values through
// the atomics. The store is still a locked instruction (XCHG), so bump is
// for the steal path and the armed per-run cells; the spawn path counts in
// hotStats.
func bump(c *atomic.Int64) {
	c.Store(c.Load() + 1)
}

// bumpN is bump for increments larger than one.
func bumpN(c *atomic.Int64, n int64) {
	c.Store(c.Load() + n)
}

// maxOwn raises the single-writer max-gauge m to v — bump's analogue of
// maxStore, with the same single-writer contract.
func maxOwn(m *atomic.Int64, v int64) {
	if v > m.Load() {
		m.Store(v)
	}
}

// maxStore raises the max-gauge m to v. The CAS loop makes it correct under
// concurrent writers: the span gauges (frame.spanChild) are deposited by
// whichever workers complete the frame's children, so a plain
// load-then-store could regress the gauge when two workers race. Counters
// with a single writing goroutine use maxOwn instead.
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
	// Spawns is the total number of Spawn calls.
	Spawns int64
	// Steals counts successful steals; StealAttempts counts all steal
	// probes, successful or not. The ratio Steals/Spawns is the empirical
	// measure behind §3.2's claim that "stealing is infrequent" when
	// parallelism exceeds the worker count.
	Steals        int64
	StealAttempts int64
	// StealBatches counts successful batch steals — StealBatch operations
	// that moved at least one extra task into the thief's deque beyond the
	// task it kept to run. TasksStolenBatched is the total number of those
	// extra tasks. Steals counts every successful steal operation, batched
	// or not, so TasksStolenBatched/StealBatches is the mean surplus per
	// batch and Steals+TasksStolenBatched is the total number of tasks that
	// migrated between workers. Both are zero in RunWithStats results:
	// batching is a property of the worker's hunt, not of one computation.
	StealBatches       int64
	TasksStolenBatched int64
	// FailedSweeps counts steal sweeps that probed every other worker and
	// found nothing — the consecutive-failure signal that escalates a
	// worker's hunt from spinning through yielding to parking. Also zero in
	// RunWithStats results, like StealAttempts.
	FailedSweeps int64
	// TasksRun is the number of spawned tasks and scheduled loop pieces
	// executed (excluding Run roots). Absent lazy loops it equals Spawns
	// once all submitted computations finish, provided none were cancelled
	// (see TasksSkipped).
	TasksRun int64
	// TasksSkipped is the number of tasks abandoned without executing
	// because their run was cancelled (by context, deadline, a sibling
	// panic, or ShutdownDrain). Spawns = TasksRun + TasksSkipped at
	// quiescence.
	TasksSkipped int64
	// MaxLiveFrames is the maximum, over workers, of simultaneously live
	// frames on one worker — the runtime's analogue of per-worker stack
	// depth in the §3.1 space discussion.
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
	// heavy, or deep unbalanced trees). Zero in RunWithStats results:
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
	// MemLiveBytes is the instantaneous cross-run gauge and MemPeakBytes is
	// zero (peaks are a per-run notion). Both are watermark/gauge-like:
	// Sub keeps the newer snapshot's values.
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

// Stats aggregates the per-worker counters. A computation's counts are all
// included once its Ticket.Wait (or Run) has returned; while it is in flight
// each worker's spawn, task, chunk and live-frame counts may trail by up to
// 1024 spawns or chunks (see publish).
func (rt *Runtime) Stats() Stats {
	var s Stats
	for _, w := range rt.workers {
		s.Spawns += w.ws.spawns.Load()
		s.Steals += w.ws.steals.Load()
		s.StealAttempts += w.ws.stealAttempts.Load()
		s.StealBatches += w.ws.stealBatches.Load()
		s.TasksStolenBatched += w.ws.tasksStolenBatched.Load()
		s.FailedSweeps += w.ws.failedSweeps.Load()
		s.TasksRun += w.ws.tasksRun.Load()
		s.TasksSkipped += w.ws.tasksSkipped.Load()
		s.LoopSplits += w.ws.loopSplits.Load()
		s.ChunksPeeled += w.ws.chunksPeeled.Load()
		s.RangeSteals += w.ws.rangeSteals.Load()
		s.PoolRefills += w.ws.poolRefills.Load()
		s.PoolSpills += w.ws.poolSpills.Load()
		if m := w.ws.maxLiveFrames.Load(); m > s.MaxLiveFrames {
			s.MaxLiveFrames = m
		}
		if m := w.ws.maxDepth.Load(); m > s.MaxDepth {
			s.MaxDepth = m
		}
	}
	s.Stalls = rt.stalls.Load()
	s.MemLiveBytes = rt.MemLiveBytes()
	return s
}

// Sub returns the counter deltas s − prev, for snapshot-style accounting
// around a region of interest (take Stats before and after, subtract). The
// max gauges MaxLiveFrames and MaxDepth are watermarks, not counters — a
// delta is meaningless — so Sub keeps s's values for them.
func (s Stats) Sub(prev Stats) Stats {
	s.Spawns -= prev.Spawns
	s.Steals -= prev.Steals
	s.StealAttempts -= prev.StealAttempts
	s.StealBatches -= prev.StealBatches
	s.TasksStolenBatched -= prev.TasksStolenBatched
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
	s := rt.Stats()
	m := map[string]int64{
		"workers":              int64(rt.cfg.workers),
		"spawns":               s.Spawns,
		"steals":               s.Steals,
		"steal_attempts":       s.StealAttempts,
		"steal_batches":        s.StealBatches,
		"tasks_stolen_batched": s.TasksStolenBatched,
		"failed_sweeps":        s.FailedSweeps,
		"tasks_run":            s.TasksRun,
		"tasks_skipped":        s.TasksSkipped,
		"loop_splits":          s.LoopSplits,
		"chunks_peeled":        s.ChunksPeeled,
		"range_steals":         s.RangeSteals,
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
		// injection lanes right now, and cumulative admission outcomes.
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
	for c := 0; c < numQoS; c++ {
		// Underscored class names: these keys feed the Prometheus exposition,
		// whose metric names admit neither dots nor dashes.
		m["queued_"+strings.ReplaceAll(QoSClass(c).String(), "-", "_")] = rt.queuedByClass[c].Load()
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
	for i, w := range rt.workers {
		p := fmt.Sprintf("worker.%d.", i)
		m[p+"spawns"] = w.ws.spawns.Load()
		m[p+"steals"] = w.ws.steals.Load()
		m[p+"steal_attempts"] = w.ws.stealAttempts.Load()
		m[p+"steal_batches"] = w.ws.stealBatches.Load()
		m[p+"failed_sweeps"] = w.ws.failedSweeps.Load()
		m[p+"tasks_run"] = w.ws.tasksRun.Load()
		m[p+"max_live_frames"] = w.ws.maxLiveFrames.Load()
	}
	if rt.tracer != nil {
		m["trace_enabled"] = 0
		if rt.tracer.Enabled() {
			m["trace_enabled"] = 1
		}
	}
	return m
}
