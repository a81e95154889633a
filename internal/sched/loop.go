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
//     steal-half semantics for iterations (Gu, Napier & Sun, PAPERS.md),
//     while tasks are stolen one at a time. Both halves remain splittable
//     by further thieves, so the split tree unfolds exactly as deep as the
//     thieves demand: O(P · log(n/grain)) pieces instead of Θ(n/grain)
//     tasks.
//
//   - A scheduled piece — a range task popped from a deque or stolen — is a
//     spawned child of the loop frame, as in the paper's recursion: each of
//     its execution episodes runs peel as the body of a fresh piece frame
//     through runFrame, the body every child runs, so it is counted, traced,
//     clocked, quarantined on a panic and retired exactly as a task is.
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
	// created (see obs.go), and the spawnSpan of every piece frame, so each
	// scheduled episode deposits spawnSpan + its own span into the loop
	// frame's child-span gauges, approximating the loop's span as its
	// longest episode; zero on unobserved runs.
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
	ls := &loopState{frame: f, seq: f.nextLoopSeq, grain: grain, body: body}
	if f.run.clock != nil {
		// The loop is a spawn boundary for span purposes: close the segment
		// so spawnSpan is the span at the loop's creation point.
		c.charge()
		ls.spawnSpan = c.spanLocal
	}
	f.nextLoopSeq++
	f.join.Add(1)
	t := newRangeTask(ls, lo, hi)
	// The calling strand is the loop's first executor: peel inline, on the
	// loop frame's own context, so the owner's iterations accumulate views
	// directly into the strand's current segment (the serial prefix).
	c.w.peel(t, c)
}

// peel executes range task t on worker w with context ctx, which must be
// exclusively owned by the calling strand, until this episode consumes t
// (runs its final chunk, or abandons it to cancellation) or t passes to
// another owner — stolen by a thief, or left in w's deque behind newer
// work — whose episode then goes on with it.
//
// The episode that consumes t releases t's unit of the loop frame's join,
// on a panic in a chunk too, so neither the loop's sync nor a drain after
// the panic waits for it forever. held is true exactly while this strand
// owns t, updated before every point a chunk body could panic: t's own
// fields may belong to a thief by then.
func (w *worker) peel(t *task, ctx *Context) {
	ls := t.loop
	rs := ls.frame.run
	held := true
	defer func() {
		if held {
			freeRangeTask(t)
		}
	}()
	for {
		lo, hi := t.lo, t.hi
		rs.checkBudget(w) // the chunk boundary bounds over-budget latency
		if rs.cancelled() {
			return // skip-but-join: remaining iterations abandoned
		}
		if hi-lo <= ls.grain {
			// Final chunk: nothing left to publish; t stays held through it.
			w.runChunk(ctx, ls, lo, hi)
			return
		}
		end := lo + ls.grain
		// Publish the remainder before running the chunk: mutate the range
		// first — the deque's push/steal synchronization publishes the new
		// bounds to any thief — then make it stealable.
		t.lo = end
		held = false
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
			held = true
			continue
		}
		if x != nil {
			w.deque.PushBottom(x)
		}
		return
	}
}

// runChunk executes one grain of a lazy loop's iterations on ctx's strand.
func (w *worker) runChunk(ctx *Context, ls *loopState, lo, hi int) {
	rs := ls.frame.run
	m := w.acct(rs)
	m.c.chunksPeeled++
	if m.c.chunksPeeled&(publishEvery-1) == 0 {
		w.flushRun()
	}
	w.rec.ChunkRun(int32(hi-lo), rs.id)
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
	rs := ls.frame.run
	bump(&rs.cells[w.id].rangeSteals)
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
	bump(&rs.cells[w.id].loopSplits)
	w.rec.LoopSplit(int32(nt.hi-nt.lo), rs.id)
	if w.deque.PushBottom(nt) {
		w.rt.wake()
	}
}

// runPiece executes a scheduled range task — one popped from a deque or
// taken by a thief — to completion or handoff. The episode is a spawned
// child of the loop frame (§2: cilk_for is divide-and-conquer spawning): it
// runs peel as the body of a piece frame through runFrame, so it is
// counted, traced, clocked, quarantined on a panic, retired and settled
// exactly as any child is, and on an observed run endFrame deposits its
// span — the loop's spawnSpan plus the episode's — into the loop frame.
// What is left here is loop-specific: the episode's join unit and the views
// of the iterations it ran, deposited keyed by its start index; peel
// releases the task's own unit. Tasks of a cancelled run are skipped, not
// executed, exactly like fn tasks.
func (w *worker) runPiece(t *task) {
	ls := t.loop
	lf := ls.frame
	rs := lf.run
	if rs.cancelled() {
		w.countSkip(rs, lf.depth+1)
		w.flushRun()
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
	pf := w.getFrame(lf, rs, 0, lf.depth+1)
	pf.spawnSpan = ls.spawnSpan
	views := w.runFrame(pf, func(ctx *Context) { w.peel(t, ctx) }, nil, rs.clock)
	// runFrame retired the piece frame before the episode unit drops (see
	// runTask). Deposit before signalling the join counter: the loop's sync
	// must not fold until every episode's views are visible. The episode
	// unit is released through the shared word wherever the piece ran, so
	// its counts are flushed first, like any off-strand join's.
	lf.depositPiece(ls.seq, start, views)
	w.flushRun()
	lf.join.Add(-1) // release the episode unit
}

// countSkip counts a task of run rs, at spawn depth depth, skipped unrun
// because the run was cancelled: a frame (skipFrame) or a range piece
// (runPiece).
func (w *worker) countSkip(rs *runState, depth int32) {
	w.acct(rs).c.tasksSkipped++
	w.rec.TaskSkip(depth, rs.id)
}
