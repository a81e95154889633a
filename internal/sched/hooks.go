package sched

// Hooks receives the parallel-control events of a serial-elision execution,
// in depth-first serial order on a single goroutine: the run's strand
// worker, which fires them from the same Spawn, Call and Sync a parallel
// run executes (Spawn running the child inline). This is the event
// stream Cilkscreen consumes (§4): the SP-bags algorithm maintains
// series-parallel relationships from exactly these events, and the Cilkview
// profiler derives strand boundaries from them.
//
// Event order for `x(); cilk_spawn f(); y(); cilk_sync;` is:
//
//	[x runs] Spawn FrameStart [f runs] FrameEnd [y runs] Sync
//
// The root function is bracketed by FrameStart/FrameEnd as well.
type Hooks interface {
	// Spawn fires in the parent immediately before a spawned child begins.
	Spawn()
	// FrameStart fires when a spawned function's body begins.
	FrameStart()
	// FrameEnd fires when a spawned function's body (including its
	// implicit sync) has completed, immediately before control returns to
	// the parent.
	FrameEnd()
	// Sync fires when the current function passes a sync point. The
	// implicit sync before a frame returns fires Sync as well (it precedes
	// the frame's FrameEnd).
	Sync()
	// CallStart fires when a called (not spawned) function's frame begins:
	// Context.Call and the constructs built on it, such as cilk_for.
	CallStart()
	// CallEnd fires when a called frame (including its implicit sync,
	// which fires Sync first) completes.
	CallEnd()
}

// NopHooks is a Hooks implementation that ignores every event; embed it to
// implement only a subset.
type NopHooks struct{}

// Spawn implements Hooks.
func (NopHooks) Spawn() {}

// FrameStart implements Hooks.
func (NopHooks) FrameStart() {}

// FrameEnd implements Hooks.
func (NopHooks) FrameEnd() {}

// Sync implements Hooks.
func (NopHooks) Sync() {}

// CallStart implements Hooks.
func (NopHooks) CallStart() {}

// CallEnd implements Hooks.
func (NopHooks) CallEnd() {}
