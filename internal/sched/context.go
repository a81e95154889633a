package sched

import (
	"time"

	"cilkgo/internal/schedsan"
)

// Context is the handle a strand uses to create and synchronize parallel
// work. A Context is bound to one executing function instance (one frame);
// it is not safe for concurrent use, and spawned children receive their own
// Contexts. This mirrors the Cilk++ keywords: Spawn is cilk_spawn, Sync is
// cilk_sync.
type Context struct {
	w     *worker // the executing worker; a serial run's own strand worker
	rt    *Runtime
	frame *frame

	// views holds the hyperobject views of the frame's current strand
	// segment. Only this frame's strand touches it; Spawn seals it into the
	// frame and Sync folds the sealed segments back, preserving serial
	// reduction order under any schedule.
	views viewMap

	// ckey/cview are a single-entry cache over views: the last key looked up
	// and its view. Reducer-heavy loops call View once per iteration, so the
	// hit path must be one pointer compare instead of an O(#views) scan. The
	// cache is invalidated at every strand-segment boundary — Spawn's seal,
	// Sync's fold, Call's view handback, DropView — because the view a key
	// maps to changes exactly there.
	ckey  any
	cview View

	// spanLocal is the online span accumulated along this frame's strand
	// (segment durations plus folded child spans; see obs.go), used only on
	// observed runs and touched only by this frame's strand. The open
	// segment started at the worker's last clock read (worker.clk).
	spanLocal int64
}

// Runtime returns the runtime executing this computation.
func (c *Context) Runtime() *Runtime { return c.rt }

// WorkerID returns the index of the worker executing this strand; 0 in
// serial-elision mode, where each run has one strand worker of its own.
func (c *Context) WorkerID() int { return c.w.id }

// Depth returns the spawn depth of this frame below the root.
func (c *Context) Depth() int { return int(c.frame.depth) }

// Spawn creates fn as a spawned child of this frame. The child may execute
// in parallel with the rest of this function, on this or any other worker,
// or Spawn may run it to completion before returning. Results produced by
// the child must not be consumed before the next Sync.
//
// Spawns are lazy (lazy task creation, Mohr, Kranz & Halstead 1991; the
// "push when the local deque is empty" policy of lazy scheduling, Tzannes
// et al. 2014): the child is pushed onto the worker's deque, where a thief
// can take it, only when that deque is empty. Otherwise thieves already
// have work to take here, and the child runs inline (spawnInline) — in
// serial order, like a call, but still a spawn of the dag: a panic in it is
// quarantined at the child, and on an observed run its span merges with the
// continuation's at the next Sync. The serial elision takes the same inline
// path for every child, yielding exactly the serial C++-elision execution
// order.
//
// On a cancelled run Spawn is a no-op — the spawn boundary is a cancel
// check site (one atomic load), so a cancelled computation stops growing
// its spawn tree.
func (c *Context) Spawn(fn func(*Context)) {
	f := c.frame
	rs := f.run
	w := c.w
	rs.checkBudget(w) // the spawn boundary is a budget check site too
	if rs.cancelled() {
		return
	}
	m := w.acct(rs)
	m.c.spawns++
	if m.c.spawns&(publishEvery-1) == 0 {
		w.flushRun()
	}
	w.rec.Spawn()
	if w.deque == nil {
		// The serial elision's strand worker has no deque: every child runs
		// inline. The run is one strand, so no spawn in it is a clock
		// boundary either — an observed serial run's Work and Span are both
		// its root's one segment.
		c.spawnInline(fn, nil)
		return
	}
	cl := rs.clock
	if cl != nil {
		// Observed run: the spawn ends the current strand segment — charge
		// it, so the child's spawnSpan is the span at the spawn point.
		c.charge()
	}
	// The lazy-spawn predicate. A schedsan PointPush fault pushes anyway,
	// so fault plans keep driving steals through every protocol point.
	if !w.deque.Empty() && !w.san.Fail(schedsan.PointPush) {
		c.spawnInline(fn, cl)
		return
	}
	ord := f.nextOrdinal
	f.nextOrdinal++
	if len(c.views) > 0 {
		f.sealSegment(ord, c.views)
		c.views = nil
		// The continuation is a new strand segment: a view looked up before
		// the spawn belongs to the sealed segment and must not be served to
		// the continuation (it would corrupt the serial fold order).
		c.ckey, c.cview = nil, nil
	}
	f.spawned++
	child := w.getFrame(f, rs, ord, f.depth+1)
	w.chargeMem(rs, frameMemBytes) // queued until it runs (runTask)
	// spanLocal is zero on unobserved runs, and recycled frames reset the
	// field, so the store needs no clock gate.
	child.spawnSpan = c.spanLocal
	child.t.fn = fn
	m.c.pushes++ // still rs's mirror: the charge above accounted to rs too
	// Wake a parked worker only when this push made the deque non-empty: a
	// non-empty deque already blocks parking (the parker's under-lock
	// stealableWork re-check), so pushes onto a deque with visible work
	// cannot strand anyone — and spawn-path wakes are droppable anyway (see
	// stealableWork's lost-wakeup argument). Under the lazy policy only a
	// forced push (PointPush) finds the deque non-empty.
	if w.deque.PushBottom(&child.t) {
		c.rt.wake()
	}
}

// spawnInline runs fn as a spawned child to completion before returning, on
// the spawning strand, without pushing it: Spawn's path for a child no
// thief needs, and for every child of the serial elision. The child frame
// comes off the worker's freelist and runs through runFrame, the body every
// task runs, so it is counted, traced and retired exactly as a popped
// child is, and a panic in it is quarantined at the child — its own pushed
// children drained — before control returns to the parent, as it would be
// on any parallel schedule. It shares the parent's views with no seal or
// deposit: serial order is the execution order. cl is the run's clock, nil
// when unobserved and on the serial elision; with it the child deposits
// its span into the parent's spanInline, to be max-merged with the
// continuation's at the next Sync, as for a child popped there. Hooks fire
// in depth-first serial order; they are installed only on serial runtimes.
func (c *Context) spawnInline(fn func(*Context), cl *runClock) {
	f := c.frame
	w := c.w
	h := c.rt.cfg.hooks
	if h != nil {
		h.Spawn()
		h.FrameStart()
	}
	child := w.getFrame(f, f.run, 0, f.depth+1)
	child.spawnSpan = c.spanLocal
	// The child may have (re)allocated or edited the shared map. A strand
	// without views has no cached view either, so when neither side has any
	// there is nothing to hand back or invalidate.
	if views := w.runFrame(child, fn, c.views, cl); views != nil || c.views != nil {
		c.views = views
		c.ckey, c.cview = nil, nil
	}
	if h != nil {
		h.FrameEnd()
	}
}

// Call executes fn synchronously in a fresh frame, like an ordinary (not
// spawned) Cilk function call: fn runs to completion on the calling strand,
// and its implicit sync joins only the children fn itself spawned — not the
// caller's pending children. Constructs with their own sync scope, such as
// cilk_for (internal/pfor), are built on Call.
func (c *Context) Call(fn func(*Context)) {
	h := c.rt.cfg.hooks
	if h != nil {
		h.CallStart()
	}
	w := c.w
	rs := c.frame.run
	child := w.getFrame(c.frame, rs, 0, c.frame.depth+1)
	// A called frame runs on the caller's strand rather than as a task, so
	// it is not one of the live frames: its bytes are charged while it lasts.
	w.chargeMem(rs, frameMemBytes)
	// The callee borrows the child frame's embedded Context — a Call
	// allocates nothing on a warm freelist.
	//
	// A called frame stays on the caller's strand: the callee continues the
	// caller's open segment and accumulated span, and the caller absorbs the
	// span back when the call returns — so the strand's span threads through
	// the call as if it were inlined. spanLocal is zero on unobserved runs,
	// so the copies need no clock gate.
	cc := &child.ctx
	cc.w, cc.rt, cc.views, cc.spanLocal = w, c.rt, c.views, c.spanLocal
	// The frame is retired on a panic too. The deferred calls do not
	// recover: the panic unwinds on to the enclosing frame's endFrame, which
	// quarantines it with the panicking strand's stack. First the callee's
	// outstanding children and loop pieces are drained, so none of them runs
	// after Ticket.Wait returns; on a normal return Sync has joined them all
	// and syncWait has nothing to do.
	defer func() {
		w.chargeMem(rs, -frameMemBytes)
		w.putFrame(child)
	}()
	defer cc.syncWait()
	fn(cc)
	cc.Sync() // implicit sync of the called frame
	c.spanLocal = cc.spanLocal
	c.views = cc.views
	c.ckey, c.cview = nil, nil
	if h != nil {
		h.CallEnd()
	}
}

// Sync waits until every child spawned by this function has completed — a
// local barrier, not a global one (§1). While waiting, the worker first
// drains its own deque and then steals, so processors never idle while work
// is available. When the join completes, the frame's hyperobject views are
// folded in serial order.
func (c *Context) Sync() {
	if h := c.rt.cfg.hooks; h != nil {
		h.Sync()
	}
	f := c.frame
	// On an observed run a sync with something to join ends the strand
	// segment; the wait itself is excluded from both clocks (a sync edge has
	// zero weight in the dag model — the worker may run unrelated tasks
	// while it waits, and those charge their own runs). A child run inline
	// joined before its Spawn returned, but its deposited span still merges
	// here. A region that pushed nothing, started no loop and ran no child
	// inline has nothing to join or merge: for the clocks that sync is no
	// boundary, and the open segment continues.
	timed := f.run.clock != nil && (f.spawned != 0 || f.nextLoopSeq != 0 || f.spanInline != 0)
	if timed {
		c.charge()
	}
	c.syncWait()
	if timed {
		c.resumeSync()
	}
	if f.nextOrdinal > 0 || f.nextLoopSeq > 0 {
		// Fold only when some hyperobject bookkeeping actually landed this
		// region — a sealed segment or a deposit. Otherwise the fold is the
		// identity on c.views (nothing was sealed, so the strand's map IS
		// the serial accumulation) and the whole machinery — redMu, the
		// segment walk, the piece sort, the view-cache invalidation — is
		// skipped. The depositedViews read is ordered after every deposit by
		// the join that follows it: program order for a child that ran on
		// this strand, syncWait's load of the join word for any other.
		if f.sealedViews || f.depositedViews {
			// Sanitizer: stretch the window between the last child
			// deposit and the fold that consumes the deposits.
			c.w.san.Delay(schedsan.PointViewFold)
			c.views = f.foldViews(c.views)
			c.ckey, c.cview = nil, nil
		}
		f.nextOrdinal = 0
		f.nextLoopSeq = 0
	}
}

// syncWait blocks until every child and loop unit of the frame has joined,
// executing other available tasks while waiting, and leaves the frame's join
// accounting zeroed for its next sync region or pool life. A child popped
// here runs on this strand and joins with a plain increment (joinChild), so
// a sync over un-stolen children never touches shared state.
func (c *Context) syncWait() {
	f := c.frame
	w := c.w
	backoff := minBackoff
	// Wait while completions are owed, not until the count is exactly zero:
	// only a double-join bug can take it below, and exiting there keeps that
	// failure reportable instead of an unexplained spin.
	for f.outstanding() > 0 {
		if t := w.deque.PopBottom(); t != nil {
			w.runTask(t)
			backoff = minBackoff
			continue
		}
		if t := w.stealOnce(); t != nil {
			w.runTask(t)
			backoff = minBackoff
			continue
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
	if n := f.outstanding(); n < 0 && c.rt.sanChecks() {
		c.rt.sanViolation("sync on frame depth %d of run %d counted %d joins too many (spawned %d, joined inline %d, join word %d) — a task joined twice",
			f.depth, f.run.id, -n, f.spawned, f.inline, f.join.Load())
	}
	f.clearJoin()
}

// LookupView returns the strand's current view for the hyperobject key, or
// nil. Used by the hyperobject library (internal/hyper). The last key looked
// up hits a single-entry cache — one interface compare — so per-iteration
// View calls in reducer loops skip the view-map scan.
func (c *Context) LookupView(key any) View {
	if key == c.ckey {
		return c.cview
	}
	v := c.views.lookup(key)
	if v != nil {
		c.ckey, c.cview = key, v
	}
	return v
}

// InstallView records v as the strand's current view for key. The key must
// not already have a view in this strand segment (callers look up first).
func (c *Context) InstallView(key any, v View) {
	c.views = append(c.views, viewEntry{key: key, v: v})
	c.ckey, c.cview = key, v
}

// DropView removes the strand's current view for key, if any. Used by the
// hyperobject library when a reducer is released to a pool: the next
// acquisition may hand the same reducer pointer to the same strand, and a
// surviving view-map entry would resurrect the retired view instead of
// starting a fresh reduction.
func (c *Context) DropView(key any) {
	for i := range c.views {
		if c.views[i].key == key {
			c.views = append(c.views[:i], c.views[i+1:]...)
			break
		}
	}
	c.ckey, c.cview = nil, nil
}
