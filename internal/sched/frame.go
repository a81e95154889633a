package sched

import (
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// task is one unit of stealable work: either a spawned function together
// with the frame it will execute in, or — when loop is non-nil — a range
// task covering the loop iterations [lo, hi) of a lazily-split cilk_for
// (see loop.go). Range tasks are never pooled: the peel protocol identifies
// a re-published remainder by pointer, so a range task's address must stay
// unique for as long as any worker still holds a reference to it.
type task struct {
	fn    func(*Context)
	frame *frame

	// Range-task fields (fn == nil, loop != nil). Only the worker that
	// exclusively holds the task (its current executor, or a thief that
	// just took it) may read or mutate lo and hi; the deque's push/steal
	// synchronization publishes them to the next holder.
	loop   *loopState
	lo, hi int
}

// frame is the activation record of one spawned function (§3.2: "the
// subroutine's activation frame containing its local variables"). It tracks
// the join counter for the frame's outstanding spawned children and the
// ordered reducer-view bookkeeping needed to fold hyperobject views in
// serial order at the next sync.
type frame struct {
	parent *frame
	run    *runState

	// The join accounting of the current sync region. spawned counts the
	// children Spawn created and inline the ones that then completed on this
	// frame's own strand (see joinChild); only that strand touches either, so
	// an un-stolen spawn joins with two plain increments. join is the shared
	// word: a child completing on another worker subtracts one from it, and
	// every live range task and running episode of a lazy loop rooted here
	// holds one unit of it (see loop.go). The frame still waits for
	// spawned − inline + join completions (outstanding); syncWait zeroes all
	// three when that reaches zero.
	spawned int32
	inline  int32
	join    atomic.Int32

	// ordinal is this frame's index in its parent's spawn order within the
	// parent's current sync region.
	ordinal int32

	// nextOrdinal counts children spawned in the current sync region. Only
	// the frame's own strand touches it.
	nextOrdinal int32

	// depth is the spawn depth below the root, for stack statistics.
	depth int32

	// sealed[k] holds the parent strand's view segment accumulated
	// immediately before spawning child k. Only the frame's own strand
	// touches it (seal at Spawn, fold at Sync), so it needs no lock.
	sealed []viewMap

	// childViews[k] holds child k's final folded views. Children deposit
	// concurrently, so it is guarded by redMu; the fold reads it only
	// after every child has joined.
	redMu      sync.Mutex
	childViews []viewMap

	// pieces holds the view deposits of a lazy cilk_for's range pieces
	// (see loop.go). Unlike spawned children, pieces are created at split
	// time — when a thief takes part of the iteration space — so their
	// serial position cannot be a dense spawn ordinal assigned up front.
	// Each deposit instead carries the loop's sequence number within this
	// frame and the first iteration index the depositing execution covered;
	// sorting by (seq, start) at fold time reconstructs the exact serial
	// order. Guarded by redMu, like childViews.
	pieces []pieceDeposit

	// nextLoopSeq numbers the lazy loops rooted at this frame in strand
	// order, so two sequential loops in one sync region cannot interleave
	// their piece deposits. Only the frame's own strand touches it.
	nextLoopSeq int32

	// Hyperobject-activity flags, split by writer so they stay race-free:
	// sealedViews is set by the frame's own strand when Spawn seals a
	// segment; depositedViews is set under redMu by children and range
	// pieces depositing views (the parent's unlocked read is ordered by the
	// join that follows every deposit). While both are
	// false at a sync the fold — redMu, segment walk, piece sort — is
	// skipped entirely, so a run that touches no hyperobjects pays two
	// boolean tests per sync (work-first: the common case must not fund the
	// rare one).
	sealedViews    bool
	depositedViews bool

	// Online work/span fields (see obs.go), live only on observed runs.
	// spawnSpan is the parent's local span at the instant this frame was
	// spawned (written by the parent's strand before the task is pushed,
	// published by the deque's synchronization). spanInline and spanChild
	// hold the max over completed children of spawnSpan_child + span_child,
	// split like the join: a child (or loop episode) that completes on this
	// frame's strand deposits into the plain spanInline, any other into the
	// shared spanChild. This frame's Sync folds both.
	spawnSpan  int64
	spanInline int64
	spanChild  atomic.Int64

	// t and ctx are the frame's spawn task and execution Context, embedded
	// so one allocation covers all three objects a spawn needs (the
	// work-first principle: a spawn should cost a small constant over a
	// call, and allocator trips are most of that constant). t.frame and
	// ctx.frame are self-links, set once at allocation and preserved across
	// pool lives. Range tasks are never embedded — the peel protocol needs
	// their address to be independent of any frame (see task).
	t   task
	ctx Context
}

// pieceDeposit is one range piece's folded views, positioned in serial
// order by the owning loop's sequence number and the piece's start index.
type pieceDeposit struct {
	seq   int32
	start int
	views viewMap
}

// depositPiece records the views accumulated by one execution episode of a
// range piece, beginning at iteration index start. Called by whichever
// worker ran the episode, before it signals the loop frame's join counter.
func (f *frame) depositPiece(seq int32, start int, views viewMap) {
	if len(views) == 0 {
		return
	}
	f.redMu.Lock()
	if rt := f.run.rt; rt.sanChecks() {
		// Iteration indexes are consumed exactly once, so two episodes of
		// one loop can never begin at the same index: a duplicate (seq,
		// start) deposit means some piece executed twice.
		for i := range f.pieces {
			if f.pieces[i].seq == seq && f.pieces[i].start == start {
				f.redMu.Unlock()
				rt.sanViolation("duplicate range-piece deposit (loop %d, start %d) — a piece executed twice", seq, start)
				f.redMu.Lock()
				break
			}
		}
	}
	f.pieces = append(f.pieces, pieceDeposit{seq: seq, start: start, views: views})
	f.depositedViews = true
	f.redMu.Unlock()
}

// outstanding is the number of children and loop units the frame's next sync
// still waits for. Only the frame's own strand may call it. The load of join
// is the acquire half of every off-strand join: what a child wrote before
// its decrement is visible once the decrement is counted here.
func (f *frame) outstanding() int32 {
	return f.spawned - f.inline + f.join.Load()
}

// clearJoin zeroes the join accounting. The shared word is compared first:
// its store is a locked instruction, and it is already zero unless a child
// or loop unit joined from another worker.
func (f *frame) clearJoin() {
	f.spawned, f.inline = 0, 0
	if f.join.Load() != 0 {
		f.join.Store(0)
	}
}

// sealSegment records the strand's current views as the segment preceding
// child k in serial order. Called only by the frame's own strand.
func (f *frame) sealSegment(k int32, views viewMap) {
	f.sealed = storeAt(f.sealed, int(k), views)
	f.sealedViews = true
}

// depositChildViews records child k's final views. Called by the child's
// worker when the child's task completes.
func (f *frame) depositChildViews(k int32, views viewMap) {
	f.redMu.Lock()
	if rt := f.run.rt; rt.sanChecks() && int(k) < len(f.childViews) && f.childViews[k] != nil {
		// Each spawn ordinal belongs to exactly one child task; a second
		// deposit at the same ordinal means that task completed twice.
		f.redMu.Unlock()
		rt.sanViolation("duplicate reducer-view deposit for child ordinal %d — a task completed twice", k)
		f.redMu.Lock()
	}
	f.childViews = storeAt(f.childViews, int(k), views)
	f.depositedViews = true
	f.redMu.Unlock()
}

// storeAt grows s as needed so that s[k] = v.
func storeAt(s []viewMap, k int, v viewMap) []viewMap {
	for len(s) <= k {
		s = append(s, nil)
	}
	s[k] = v
	return s
}

// foldViews combines, in exact serial order, all view segments of the
// current sync region — seg₀ ⊕ child₀ ⊕ seg₁ ⊕ child₁ ⊕ … ⊕ current —
// and returns the folded map. Must be called only after the join counter
// has reached zero, so no child is concurrently depositing.
//
// When the region ran lazy loops, their stolen pieces fold after current,
// ordered by (loop sequence, start index). This is exactly serial order for
// the canonical shape — a loop whose frame is private to it (internal/pfor
// wraps every loop in a Call) — because the strand's own accumulation covers
// the loop prefix it executed inline, and every deposited piece covers a
// strictly later contiguous range.
func (f *frame) foldViews(current viewMap) viewMap {
	f.redMu.Lock()
	children := f.childViews
	pieces := f.pieces
	f.redMu.Unlock()
	var acc viewMap
	for k := int32(0); k < f.nextOrdinal; k++ {
		if int(k) < len(f.sealed) {
			acc = mergeViews(acc, f.sealed[k])
		}
		if int(k) < len(children) {
			acc = mergeViews(acc, children[k])
		}
	}
	acc = mergeViews(acc, current)
	if len(pieces) > 0 {
		sort.Slice(pieces, func(i, j int) bool {
			if pieces[i].seq != pieces[j].seq {
				return pieces[i].seq < pieces[j].seq
			}
			return pieces[i].start < pieces[j].start
		})
		for i := range pieces {
			acc = mergeViews(acc, pieces[i].views)
		}
	}
	// Retain the outer arrays' capacity for the frame's next sync region
	// (and next pool life): zero the elements — the folded inner viewMaps
	// may live on, aliased by acc — and truncate. Only the outer []viewMap /
	// []pieceDeposit backing is written here, never an inner viewMap, so the
	// aliasing is safe. No child or piece can be depositing concurrently
	// (the join counter reached zero before the fold), but childViews and
	// pieces take redMu anyway to pair with the depositors' critical
	// sections.
	f.redMu.Lock()
	f.childViews = clearViewMaps(f.childViews)
	for i := range f.pieces {
		f.pieces[i] = pieceDeposit{}
	}
	f.pieces = f.pieces[:0]
	f.depositedViews = false
	f.redMu.Unlock()
	f.sealed = clearViewMaps(f.sealed)
	f.sealedViews = false
	return acc
}

// clearViewMaps nils the elements of an outer view-map array and truncates
// it, retaining the backing array for reuse. The inner viewMaps are shared
// with deposits that outlive the owner (mergeViews reuses its operands), so
// only the outer slots may be cleared.
func clearViewMaps(s []viewMap) []viewMap {
	for i := range s {
		s[i] = nil
	}
	return s[:0]
}

// viewMap holds the hyperobject views of one strand segment, keyed by
// hyperobject identity (a pointer supplied by internal/hyper). Strands
// typically touch at most a handful of hyperobjects, so a small slice with
// linear lookup beats a map on both allocation and access cost.
type viewMap []viewEntry

type viewEntry struct {
	key any
	v   View
}

func (m viewMap) lookup(key any) View {
	for i := range m {
		if m[i].key == key {
			return m[i].v
		}
	}
	return nil
}

// mergeViews folds right into left in order (left ⊕ right), reusing left's
// storage. Either side may be nil.
func mergeViews(left, right viewMap) viewMap {
	if len(right) == 0 {
		return left
	}
	if len(left) == 0 {
		return right
	}
outer:
	for _, re := range right {
		for i := range left {
			if left[i].key == re.key {
				left[i].v = left[i].v.Merge(re.v)
				continue outer
			}
		}
		left = append(left, re)
	}
	return left
}

// View is the per-strand state of a hyperobject (§5): each strand updates a
// private view without synchronization, and when strands join their views
// are combined with Merge, which must be associative. Merge receives the
// view that is later in serial order and returns the combined view (which
// may be the receiver, updated in place).
type View interface {
	Merge(right View) View
}

// Finalizer is implemented by hyperobject keys that want the computation's
// final folded view delivered when the root frame completes.
type Finalizer interface {
	Finalize(v View)
}

// runState tracks one submitted run: completion signaling, the
// cooperative cancel gate, quarantined panics, and the run's counters.
type runState struct {
	// id identifies the run, so trace events of concurrent
	// computations sharing the workers can be told apart.
	id int64
	rt *Runtime
	// cells are the run's counters, one cell per worker (runCell).
	cells []runCell
	done  chan struct{}

	// canceled is the cooperative cancel gate checked at the spawn,
	// task-start, and per-chunk boundaries. cause is the error Wait will
	// report; it is written (once) before canceled is raised, so any
	// strand observing canceled==true also observes cause.
	canceled   atomic.Bool
	cancelOnce sync.Once
	cause      error

	// panics quarantines every panic captured in the run, in capture
	// order. The first panic cancels the run; siblings that panic while
	// the run drains are collected rather than lost.
	panicMu sync.Mutex
	panics  []Panic

	// clock is the run's online work/span accounting (see obs.go); nil
	// unless the runtime carries a RunObserver. start is the run's
	// wall-clock submission time, set only when clock is armed.
	clock *runClock
	start time.Time

	// Serving-layer identity and lifecycle (see submit.go). tenant, qos,
	// prio, and memEst echo the submission's options; enqNs/pickedNs are
	// the root's enqueue and pickup timestamps (rt.nanots). enqNs is written
	// before the root is published; pickedNs is zero until pickup and atomic
	// because Ticket.QueueLatency may read it while the picking worker
	// stores it. picked is the admission state machine's
	// queued→running flag, guarded by the admission mutex. stop (the
	// context watcher plus any time-budget cancel) is installed before the
	// root is published and released exactly once via releaseOnce —
	// worker-side at finish, or by the submitter when submission fails.
	tenant      string
	qos         QoSClass
	prio        int
	memEst      int64
	enqNs       int64
	pickedNs    atomic.Int64
	picked      bool
	stop        func()
	releaseOnce sync.Once

	// Memory accounting and enforcement (see memory.go). memBudget is the
	// run's WithMemoryBudget in bytes (0 = unenforced), fixed before the
	// root is published. The live bytes themselves shard into the runCells.
	// memPeak is the run's live-byte watermark, raised by every budget check
	// (maxStore: any worker's boundary may raise it). memAdm is the amount
	// admission actually charged — the declared estimate, or the tenant's
	// EWMA when pressure distrusts declarations — and is what release
	// refunds.
	memBudget int64
	memAdm    int64
	memPeak   atomic.Int64
}

// queueLatency reports how long the root waited for pickup (0 until picked).
// Serial elision never enqueues or picks up a root, so both timestamps stay
// zero and the latency reports 0 (Ticket.QueueLatency documents this;
// TestQueueLatencySerialElision pins it). The pickedNs < enqNs guard keeps a
// clock anomaly from ever reporting a negative wait.
func (rs *runState) queueLatency() time.Duration {
	picked := rs.pickedNs.Load()
	if picked == 0 || picked < rs.enqNs {
		return 0
	}
	return time.Duration(picked - rs.enqNs)
}

// release stops the run's context watcher and returns its admission
// reservation, exactly once. Called worker-side from finish so that
// fire-and-forget tickets still release their resources, and directly on
// the one submission path that never reaches finish (a shut-down runtime).
func (rs *runState) release() {
	rs.releaseOnce.Do(func() {
		if rs.stop != nil {
			rs.stop()
		}
		// Count budget cancellations here, exactly once per run: several
		// boundary checks may race to install the cause, but only one
		// release runs. canceled's publish order guarantees cause is
		// readable once the flag is up.
		if rs.canceled.Load() && rs.cause == ErrMemoryBudget {
			rs.rt.memBudgetCancels.Add(1)
		}
		rs.rt.adm.release(rs)
	})
}

// snapshot folds the run's cells into a Stats, summing counts and maxing
// gauges across the worker cells. StealAttempts is zero: failed probes are
// not attributable to one computation. MaxLiveFrames is the per-worker
// high-water mark (the maximum over cells), matching the runtime-wide Stats
// field it mirrors.
func (rs *runState) snapshot() Stats {
	var out Stats
	for i := range rs.cells {
		c := rs.cells[i].load()
		out.addCell(&c)
	}
	if cl := rs.clock; cl != nil {
		out.Work = time.Duration(cl.work.Load())
		out.Span = time.Duration(cl.span.Load())
	}
	out.MemPeakBytes = rs.memPeakBytes()
	return out
}

// poison quarantines a panic captured inside the computation and cancels
// the rest of the run (the first panic installs the cancel cause; sibling
// panics are collected alongside it). Must be called from the recovering
// goroutine so the captured stack is the panicking strand's.
func (rs *runState) poison(v any) {
	rs.panicMu.Lock()
	rs.panics = append(rs.panics, Panic{Value: v, Stack: debug.Stack()})
	rs.panicMu.Unlock()
	rs.rt.panicsQuarantined.Add(1)
	rs.cancelWith(errSiblingPanic)
}

// finish marks the run complete and releases everyone awaiting its Ticket.
// It first releases the run's resources (context watcher, admission
// reservation), then retires it from the active table, folding its cells —
// exact by now (see flushRun) — into the runtime's retired totals under the
// same lock. When the last active run drains it broadcasts, so workers that
// parked mid-run (the hunt's third phase) re-check the exit condition —
// without this, a Shutdown issued while the run was still active would wait
// forever on workers that parked after its broadcast — and it closes idle
// for any ShutdownDrain waiting. The observer's RunEnd fires strictly
// before the done channel closes, so a caller returning from Ticket.Wait
// always finds its run already reported and counted.
func (rs *runState) finish() {
	rt := rs.rt
	rs.release()
	rt.mu.Lock()
	for i := range rs.cells {
		rt.retired[i].add(rs.cells[i].load())
	}
	delete(rt.active, rs)
	if len(rt.active) == 0 {
		rt.cond.Broadcast()
		if rt.idle != nil {
			close(rt.idle)
			rt.idle = nil
		}
	}
	rt.mu.Unlock()
	if obs := rt.cfg.observer; obs != nil {
		obs.RunEnd(rt.report(rs, rs.snapshot(), rs.err()))
	}
	close(rs.done)
}

// Frame recycling — the spawn path's allocator. A spawn allocates exactly
// one object: a frame, with its task and Context embedded (see frame). The
// fast path is a per-worker freelist accessed with no synchronization at
// all; overflow spills in frameBatchSize blocks to a global sync.Pool
// backstop, and a dry worker refills a whole block from the same backstop,
// carving a fresh contiguous slab on a miss. Routing through a sync.Pool
// keeps the old pool semantics — idle memory still returns to the GC under
// pressure, and the refill path re-balances frames between producer-heavy
// and consumer-heavy workers. Every frame but a root is taken from a
// worker's freelist — a serial elision's strand worker included — and a
// root, allocated by Submit, joins the freelist of the worker that
// retires it.
//
// Recycling remains safe for the same reason the old global pools were
// (PR 3's GC-safety work): every path that retires a frame owns it
// exclusively by then — ring slots are cleared on pop/steal/batch and
// losing thieves only discard stale pointers, so no one can observe a
// recycled frame (or its embedded task) through the deque.
const (
	// frameBatchSize is the spill/refill transfer unit and the slab carve
	// size; frameLocalCap bounds the private freelist so a consumer-heavy
	// worker (one that mostly joins frames spawned elsewhere) hands its
	// surplus back instead of hoarding it.
	frameBatchSize = 32
	frameLocalCap  = 64
)

// frameSlab boxes one spill/refill batch so the backstop pool moves whole
// batches without a per-transfer slice-header allocation.
type frameSlab struct{ fr [frameBatchSize]*frame }

var (
	// slabPool is the batch backstop between worker freelists. Get returns
	// nil on empty (no New): the caller carves a fresh slab instead.
	slabPool sync.Pool
	// boxPool recirculates emptied slab boxes back to spillers. The flow is
	// one-directional in a producer/consumer phase — spawning workers refill
	// (emptying boxes) while joining workers spill (needing boxes) — so
	// without this return path every spill past the spiller's single cached
	// box would allocate a fresh one: one allocation per frameBatchSize
	// frame crossings, forever.
	boxPool sync.Pool
)

// initFrame installs the self-links of a freshly allocated frame; they are
// preserved across pool lives.
func initFrame(f *frame) *frame {
	f.t.frame = f
	f.ctx.frame = f
	return f
}

// resetFrame clears every field a previous life could have set, retaining
// the capacity of the outer bookkeeping arrays (their elements are nil'd —
// never the inner viewMaps, which deposits may still alias; see
// clearViewMaps). The strand's own ctx.views header is dropped rather than
// reused: depositChildViews hands that backing array to the parent, so it
// outlives the frame. The join fields are zero at retirement — syncWait
// zeroes them, on the panic path too, and a skipped frame never spawned —
// and are cleared again for whatever path did not sync; spanChild, the other
// atomic word, is likewise stored to only when it differs.
func resetFrame(f *frame) {
	f.parent, f.run = nil, nil
	f.clearJoin()
	f.ordinal, f.nextOrdinal, f.depth = 0, 0, 0
	// foldViews already emptied these unless the frame's last region never
	// folded; an empty slice is not stored back (a barriered pointer write).
	if len(f.sealed) != 0 {
		f.sealed = clearViewMaps(f.sealed)
	}
	if len(f.childViews) != 0 {
		f.childViews = clearViewMaps(f.childViews)
	}
	for i := range f.pieces {
		f.pieces[i] = pieceDeposit{}
	}
	f.pieces = f.pieces[:0]
	f.nextLoopSeq = 0
	f.sealedViews, f.depositedViews = false, false
	f.spawnSpan, f.spanInline = 0, 0
	if f.spanChild.Load() != 0 {
		f.spanChild.Store(0)
	}
	if f.t.fn != nil { // already nil'd by runTask on the common path
		f.t.fn = nil
	}
	// The embedded Context resets field-wise rather than by struct store: on
	// the spawn-dense fast path every pointer field is already nil, and the
	// guard turns six barriered pointer writes into one predicted branch.
	// ctx.w and ctx.rt are deliberately left stale — every consumer rebinds
	// them before use (bindContext, Call). A pooled frame thus pins its last
	// worker, which lives as long as the runtime, and the slab pool is
	// GC-cleared, so nothing truly leaks.
	c := &f.ctx
	if c.views != nil || c.ckey != nil {
		c.views = nil
		c.ckey, c.cview = nil, nil
	}
	c.spanLocal = 0
}

// getFrame pops a frame off w's freelist — the spawn fast path: a length
// check, a slice shrink, four stores — refilling a batch from the backstop
// when the list runs dry.
func (w *worker) getFrame(parent *frame, rs *runState, ordinal, depth int32) *frame {
	var f *frame
	if n := len(w.frameFree); n > 0 {
		f = w.frameFree[n-1]
		w.frameFree[n-1] = nil
		w.frameFree = w.frameFree[:n-1]
	} else {
		f = w.refillFrames()
	}
	f.parent, f.run = parent, rs
	f.ordinal, f.depth = ordinal, depth
	return f
}

// putFrame resets f and returns it to w's freelist, spilling one batch to
// the backstop when the list is full.
func (w *worker) putFrame(f *frame) {
	resetFrame(f)
	if len(w.frameFree) >= frameLocalCap {
		w.spillFrames()
	}
	w.frameFree = append(w.frameFree, f)
}

// refillFrames restocks a dry freelist: a whole batch from the backstop
// when one is available, else a freshly carved contiguous slab — one
// allocation amortized over frameBatchSize spawns, and frames that retire
// together stay cache-adjacent. Returns one frame for the caller; the rest
// land on the freelist.
func (w *worker) refillFrames() *frame {
	if s, _ := slabPool.Get().(*frameSlab); s != nil {
		bump(&w.ws.poolRefills)
		w.frameFree = append(w.frameFree[:0], s.fr[:frameBatchSize-1]...)
		f := s.fr[frameBatchSize-1]
		s.fr = [frameBatchSize]*frame{} // drop the refs; the box itself is reused
		if w.slabCache == nil {
			w.slabCache = s
		} else {
			boxPool.Put(s)
		}
		return f
	}
	block := make([]frame, frameBatchSize)
	w.frameFree = w.frameFree[:0]
	for i := range block[:frameBatchSize-1] {
		w.frameFree = append(w.frameFree, initFrame(&block[i]))
	}
	return initFrame(&block[frameBatchSize-1])
}

// spillFrames moves the newest frameBatchSize frames of w's freelist into
// the backstop, reusing the worker's cached slab box so a steady-state
// spill/refill cycle allocates nothing.
func (w *worker) spillFrames() {
	s := w.slabCache
	w.slabCache = nil
	if s == nil {
		if s, _ = boxPool.Get().(*frameSlab); s == nil {
			s = new(frameSlab)
		}
	}
	lo := len(w.frameFree) - frameBatchSize
	copy(s.fr[:], w.frameFree[lo:])
	for i := lo; i < len(w.frameFree); i++ {
		w.frameFree[i] = nil
	}
	w.frameFree = w.frameFree[:lo]
	slabPool.Put(s)
	bump(&w.ws.poolSpills)
}

// freeRangeTask retires a consumed range task: it releases the task's unit
// of its loop frame's join, then drops the loop reference. Range tasks are
// never pooled: the peel protocol recognizes a re-published remainder by
// comparing task pointers, so recycling a finished range task could alias a
// pointer a peeling worker still compares against. Dropping the loop
// reference (so the loopState can collect promptly) is all the recycling
// they get; range tasks are rare — O(splits), not O(n/grain) — so the
// allocation is noise.
func freeRangeTask(t *task) {
	t.loop.frame.join.Add(-1)
	t.loop = nil
}

// newRangeTask allocates a fresh (never pooled — see freeRangeTask) range
// task covering loop iterations [lo, hi).
func newRangeTask(ls *loopState, lo, hi int) *task {
	return &task{loop: ls, lo: lo, hi: hi}
}
