package sched

import "cilkgo/internal/schedsan"

// This file implements lazy, steal-driven loop splitting: the range-task
// representation behind cilk_for (internal/pfor).
//
// §2 of the paper defines cilk_for as divide-and-conquer recursion over the
// iteration space. Executing that recursion eagerly creates ~n/grain tasks
// whether or not a thief ever shows up; work-stealing theory says the split
// tree only needs to be as deep as the thieves demand, and contiguous
// sequential runs improve cache behaviour (Gu, Napier & Sun — see
// PAPERS.md). Here a loop is a single splittable *range task* carrying
// [lo, hi):
//
//   - The worker executing a range task peels grain-sized chunks off the
//     front and runs them sequentially. Before each chunk it publishes the
//     remainder at the bottom of its own deque, so thieves can take the
//     not-yet-started iterations while the chunk runs; after the chunk it
//     pops the remainder back. A reclaimed remainder is recognized by
//     pointer identity, so the common no-thief case costs one push and one
//     pop per chunk — no allocation, no frame, no join-counter traffic.
//
//   - A thief that steals a range task splits it: it keeps the front half
//     and pushes the back half onto its own deque as a new range task —
//     steal-half semantics for iterations, mirroring the deque's StealBatch
//     for tasks. Both halves remain splittable by further thieves, so the
//     split tree unfolds exactly as deep as the thieves demand:
//     O(P · log(n/grain)) pieces instead of Θ(n/grain) tasks.
//
// Join and reducer invariants are preserved. Every live range task holds
// exactly one unit of the loop frame's atomic join word (a split adds one for
// the new half before publishing it; thieves add and release units, so unlike
// spawned children these never take the strand-local path), so the loop's
// implicit sync joins exactly the loop's iterations. Each execution episode
// covers a contiguous
// ascending run of iterations and deposits its reducer views keyed by the
// episode's first index — the spawn-order index assigned at split time, not
// creation time — and the fold sorts deposits by (loop, start index), which
// reconstructs the exact serial reduction order. Cancellation is checked at
// every chunk boundary with skip-but-join semantics: remaining iterations
// are abandoned, the piece still joins, and the views of iterations that
// did run still fold in order.

// loopState is the shared descriptor of one lazy cilk_for: the loop frame
// every piece joins, the chunk body, and the grain. It is created once per
// loop and shared (read-only) by all of the loop's range tasks.
type loopState struct {
	frame *frame // the loop's frame; pieces hold units of its join word
	seq   int32  // the loop's sequence number within frame's sync region
	grain int
	// body executes iterations [lo, hi) serially on the strand of c.
	body func(c *Context, lo, hi int)
	// spawnSpan is the loop frame's local span at the instant the loop was
	// created (see obs.go). Stolen pieces deposit spawnSpan + their episode
	// span into the loop frame's spanChild gauge, approximating the loop's
	// span as its longest episode; zero on unobserved runs.
	spawnSpan int64
}

// LoopRange executes body over the iteration range [lo, hi), chunked by
// grain, as a lazily-split parallel loop: the calling strand runs chunks
// sequentially while publishing the remainder for thieves, and iterations
// actually migrate only when stolen. body(c, l, h) must execute iterations
// [l, h) serially in ascending order on the strand of c; it may spawn.
//
// Stolen pieces are joined by this frame's next Sync (internal/pfor wraps
// every loop in a Call, so the loop's implicit sync joins exactly its own
// iterations). For exact serial reducer ordering the caller must not Spawn
// between LoopRange and the Sync that joins it: stolen pieces fold after
// the strand's current segment.
//
// In serial-elision mode LoopRange simply runs body(c, lo, hi).
func (c *Context) LoopRange(lo, hi, grain int, body func(c *Context, lo, hi int)) {
	if lo >= hi {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if c.rt.cfg.serial {
		body(c, lo, hi)
		return
	}
	f := c.frame
	if f.run.cancelled() {
		return
	}
	if cl := f.run.clock; cl != nil {
		// The loop is a spawn boundary for span purposes: close the segment
		// so ls.spawnSpan below is the span at the loop's creation point.
		c.charge(cl)
	}
	ls := &loopState{frame: f, seq: f.nextLoopSeq, grain: grain, body: body, spawnSpan: c.spanLocal}
	f.nextLoopSeq++
	f.join.Add(1)
	t := newRangeTask(ls, lo, hi)
	// The calling strand is the loop's first executor: peel inline, on the
	// loop frame's own context, so the owner's iterations accumulate views
	// directly into the strand's current segment (the serial prefix). If the
	// peel consumed the whole task, join it here; otherwise its next owner
	// (a thief, or this worker's later pop) joins it.
	var held bool
	if c.w.peel(t, c, &held) {
		f.join.Add(-1)
		freeRangeTask(t)
	}
}

// peel executes range task t on worker w with context ctx, which must be
// exclusively owned by the calling strand. It returns true when this
// episode consumed t (ran its final chunk, or abandoned it to
// cancellation), in which case the caller owes the loop frame a join; it
// returns false when t passed to another owner — stolen by a thief, or left
// in w's deque behind newer work — in which case t's next executor joins it.
//
// *held mirrors the return value but is kept current throughout: it is true
// exactly while this strand owes t's join, updated before every point a
// chunk body could panic. A caller recovering a panic must consult *held —
// not t's fields, which a thief may own by then — to decide whether to join.
func (w *worker) peel(t *task, ctx *Context, held *bool) bool {
	ls := t.loop
	rs := ls.frame.run
	*held = true
	for {
		lo, hi := t.lo, t.hi
		rs.checkBudget(w) // the chunk boundary bounds over-budget latency
		if rs.cancelled() {
			return true // skip-but-join: remaining iterations abandoned
		}
		if hi-lo <= ls.grain {
			// Final chunk: nothing left to publish; t stays held through it.
			w.runChunk(ctx, ls, lo, hi)
			return true
		}
		end := lo + ls.grain
		// Publish the remainder before running the chunk: mutate the range
		// first — the deque's push/steal synchronization publishes the new
		// bounds to any thief — then make it stealable.
		t.lo = end
		*held = false
		// Like Spawn's push, wake only on the empty→non-empty transition:
		// a remainder republished behind other visible work cannot strand a
		// parker (stealableWork's re-check), and the drop is benign anyway.
		if w.deque.PushBottom(t) {
			w.rt.wake()
		}
		// Sanitizer: stretch the window in which the republished remainder
		// is exposed to thieves while this strand runs the peeled chunk.
		w.san.Delay(schedsan.PointChunkPeel)
		w.runChunk(ctx, ls, lo, end)
		// Reclaim the remainder. The chunk may have spawned: then the top of
		// our deque holds its children, not t. Put the popped task back and
		// stop peeling inline — the children should run first (LIFO), and t,
		// if not stolen meanwhile, will be popped later and resume as a
		// scheduled piece.
		x := w.deque.PopBottom()
		if x == t {
			*held = true
			continue
		}
		if x != nil {
			w.deque.PushBottom(x)
		}
		return false
	}
}

// runChunk executes one grain of a lazy loop's iterations on ctx's strand.
func (w *worker) runChunk(ctx *Context, ls *loopState, lo, hi int) {
	w.hot.chunksPeeled++
	if w.hot.chunksPeeled&(publishEvery-1) == 0 {
		w.publish()
	}
	if s := ls.frame.run.stats; s != nil {
		bump(&s.cells[w.id].chunksPeeled)
	}
	w.rec.ChunkRun(int32(hi-lo), ls.frame.run.id)
	ls.body(ctx, lo, hi)
}

// splitRange halves the freshly stolen range task t when it still covers
// more than one grain: the thief keeps the front half and pushes the back
// half — a new, itself splittable, range task — onto its own deque. Called
// with t exclusively owned (just stolen) before the thief starts executing
// it, so other hungry workers can pick the far half up immediately instead
// of waiting a whole chunk for the thief's first remainder publish.
func (w *worker) splitRange(t *task) {
	ls := t.loop
	bump(&w.ws.rangeSteals)
	rs := ls.frame.run
	if s := rs.stats; s != nil {
		bump(&s.cells[w.id].rangeSteals)
	}
	if t.hi-t.lo <= ls.grain || rs.cancelled() {
		return
	}
	if w.san.Fail(schedsan.PointRangeSplit) {
		return // injected skipped split (legal: the thief runs the whole range)
	}
	mid := t.lo + (t.hi-t.lo)/2
	ls.frame.join.Add(1) // the new half is one more piece to join
	nt := newRangeTask(ls, mid, t.hi)
	t.hi = mid
	bump(&w.ws.loopSplits)
	if s := rs.stats; s != nil {
		bump(&s.cells[w.id].loopSplits)
	}
	w.rec.LoopSplit(int32(nt.hi-nt.lo), rs.id)
	if w.deque.PushBottom(nt) {
		w.rt.wake()
	}
}

// runPiece executes a scheduled range task — one popped from a deque or
// taken by a thief — to completion or handoff. The episode runs in its own
// piece frame (a child of the loop frame) so body spawns get private
// ordinal bookkeeping, and deposits the views of the iterations it ran
// keyed by its start index before signalling the loop frame's join counter.
// Tasks of a cancelled run are skipped, not executed, exactly like fn tasks.
func (w *worker) runPiece(t *task) {
	ls := t.loop
	lf := ls.frame
	rs := lf.run
	depth := lf.depth + 1
	if rs.cancelled() {
		w.hot.tasksSkipped++
		if s := rs.stats; s != nil {
			bump(&s.cells[w.id].tasksSkipped)
		}
		w.rec.TaskSkip(depth, rs.id)
		w.publish()
		lf.join.Add(-1)
		freeRangeTask(t)
		return
	}
	start := t.lo
	// Episode unit: while this episode runs a chunk, t (and its join unit)
	// may be republished and consumed by a thief, so the task's own unit
	// cannot keep the loop's sync open for the chunk in flight. The episode
	// holds one extra unit from before its first publish until after its
	// deposit, so the loop never folds while one of its chunks is executing.
	// (The owner-inline peel in LoopRange needs none: the owning strand calls
	// the loop's Sync itself, strictly after its peel returns.)
	lf.join.Add(1)
	w.hot.tasksRun++
	w.hot.frameStart(depth)
	if s := rs.stats; s != nil {
		cell := &s.cells[w.id]
		bump(&cell.tasksRun)
		cl := cell.liveFrames.Load() + 1
		cell.liveFrames.Store(cl)
		maxOwn(&cell.maxLiveFrames, cl)
		maxOwn(&cell.maxDepth, int64(depth))
	}
	w.rec.TaskStart(depth, rs.id)

	pf := w.getFrame(lf, rs, 0, depth)
	ctx := w.bindContext(pf)
	cl := rs.clock
	if cl != nil {
		ctx.strandStart = w.rt.nanots()
	}
	consumed, held := false, false
	func() {
		defer func() {
			if r := recover(); r != nil {
				// A panic inside a chunk poisons the run. Whether this episode
				// still owes t's join depends on whether it held t at the
				// instant of the panic — peel keeps held current for exactly
				// this purpose (t's own fields may belong to a thief by now).
				consumed = held
				rs.poison(r)
				w.rec.Panic(depth, rs.id)
				ctx.syncWait() // drain body spawns even on panic
			}
		}()
		consumed = w.peel(t, ctx, &held)
		ctx.Sync() // join body spawns of this episode's chunks
	}()

	if cl != nil {
		// Close the episode's strand and deposit its span against the loop
		// frame, keyed at the loop's creation point — the loop's span is
		// approximated by its longest episode (the split-tree depth is not
		// charged; DESIGN.md §4e). Ordered before the join decrements below,
		// like every span deposit.
		ctx.charge(cl)
		maxStore(&lf.spanChild, ls.spawnSpan+ctx.spanLocal)
	}
	// Deposit before signalling the join counter: the loop's sync must not
	// fold until every episode's views are visible.
	lf.depositPiece(ls.seq, start, ctx.views)
	// Retire the piece frame and settle the live gauges before releasing the
	// join units: once the episode unit drops, the loop's sync may fold and
	// the run may finish, and by then this episode's frame refund and
	// live-frame decrement must already be visible (see runTask's completion
	// path for the same ordering).
	w.recycleFrame(pf)
	w.hot.liveFrames--
	if s := rs.stats; s != nil {
		bumpN(&s.cells[w.id].liveFrames, -1)
	}
	// A piece's units are released through the shared word wherever it ran,
	// so its counts are published first, like any off-strand join's.
	w.publish()
	if consumed {
		lf.join.Add(-1)
		freeRangeTask(t)
	}
	lf.join.Add(-1) // release the episode unit
	w.rec.TaskEnd()
}
