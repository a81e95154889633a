package sched

import (
	"context"
	"errors"
	"time"
)

// This file is the runtime's robustness layer: cooperative cancellation,
// deadlines, panic quarantine, and graceful shutdown draining.
//
// Cilk++ has no cancellation story — cilk_sync always waits for every
// spawned child to run to completion, and the §3 performance bounds assume
// the computation runs to the end. A server cannot: requests are cancelled,
// deadlines expire, and one strand's panic must not take the process (or
// even the runtime) with it. The design here preserves the dag model by
// cancelling *cooperatively at strand boundaries*: a cancelled run never
// interrupts a running strand, it only stops new strands from starting.
// Every spawned task still joins its parent (its frame is popped and its
// join counter decremented — it is merely not executed), so sync still
// means "all children have completed or been abandoned", reducer views
// still fold in serial order, and the runtime's invariants hold for the
// next submission.
//
// The cancel gate is one per-run atomic bool, checked at the spawn, steal
// (task-start), and per-chunk (internal/pfor) boundaries — the same
// single-atomic-load gating pattern as the tracer, so the uncancelled hot
// path stays within noise of a runtime without the layer.

// Sentinel errors reported by Submit and Ticket.Wait. Each also matches its
// context counterpart under errors.Is (ErrCanceled ↔ context.Canceled,
// ErrDeadlineExceeded ↔ context.DeadlineExceeded), so callers holding only
// the context idiom need no new comparisons.
var (
	// ErrCanceled reports that the computation was abandoned because its
	// context was canceled.
	ErrCanceled error = &cancelError{msg: "sched: computation canceled", is: context.Canceled}
	// ErrDeadlineExceeded reports that the computation was abandoned
	// because its context's deadline (or its WithTimeBudget) passed.
	ErrDeadlineExceeded error = &cancelError{msg: "sched: computation deadline exceeded", is: context.DeadlineExceeded}
	// ErrShutdown is returned by Submit on a runtime that has been shut
	// down, and by Ticket.Wait for in-flight runs that ShutdownDrain
	// cancels at its drain deadline.
	ErrShutdown error = &cancelError{msg: "sched: runtime is shut down"}

	// errSiblingPanic is the cancel cause installed when a strand panics:
	// the rest of the run is abandoned while the panic is quarantined.
	// Wait reports the quarantined *PanicError itself, so this cause is
	// only observable mid-run via Context.Err.
	errSiblingPanic = errors.New("sched: run canceled by a panicking sibling strand")
)

// cancelError is a sentinel error that also matches a stdlib context error
// under errors.Is.
type cancelError struct {
	msg string
	is  error // stdlib counterpart, or nil
}

func (e *cancelError) Error() string { return e.msg }

func (e *cancelError) Is(target error) bool { return e.is != nil && target == e.is }

// mapCtxErr translates a context error into the runtime's sentinel.
func mapCtxErr(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	case err == nil:
		return nil
	default:
		return err
	}
}

// cancelWith requests cooperative cancellation of the run with the given
// cause. The first caller wins; later causes are dropped. Publishing order
// matters: the cause is written before the canceled flag is raised, so any
// strand that observes canceled==true also observes the cause.
func (rs *runState) cancelWith(cause error) {
	rs.cancelOnce.Do(func() {
		rs.cause = cause
		rs.canceled.Store(true)
		rs.rt.runsCanceled.Add(1)
	})
}

// cancelled reports whether the run has been canceled — the single atomic
// load every check site pays.
func (rs *runState) cancelled() bool { return rs.canceled.Load() }

// err folds the run's terminal state into the error Wait returns: a
// quarantined *PanicError if any strand panicked (carrying every sibling
// panic), else the cancel cause, else nil.
func (rs *runState) err() error {
	rs.panicMu.Lock()
	panics := rs.panics
	rs.panicMu.Unlock()
	if len(panics) > 0 {
		return &PanicError{Value: panics[0].Value, Stack: panics[0].Stack, All: panics}
	}
	if rs.canceled.Load() {
		return rs.cause
	}
	return nil
}

// watch arranges for the run to be canceled when ctx is done, returning a
// stop function the caller must invoke once the run has completed. A
// background context (no Done channel) installs nothing and costs nothing.
func (rs *runState) watch(ctx context.Context) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	cancel := context.AfterFunc(ctx, func() {
		rs.cancelWith(mapCtxErr(ctx.Err()))
	})
	return func() { cancel() }
}

// Cancelled reports whether this strand's run has been canceled (by its
// context, a deadline, a sibling panic, or ShutdownDrain). Long serial
// strands — a big grain of a cilk_for, a tight loop between spawns — should
// poll it at convenient boundaries and return early; the runtime itself
// only cancels between strands, never inside one. The cost is one atomic
// load.
func (c *Context) Cancelled() bool { return c.frame.run.cancelled() }

// Err returns nil while the strand's run is live, and the cancellation
// cause once it has been canceled: ErrCanceled, ErrDeadlineExceeded,
// ErrShutdown, or an internal marker when a sibling strand panicked (Wait
// itself reports the *PanicError).
func (c *Context) Err() error {
	rs := c.frame.run
	if !rs.cancelled() {
		return nil
	}
	return rs.cause
}

// ShutdownDrain gracefully shuts the runtime down: new submissions are
// rejected immediately (Submit returns ErrShutdown), in-flight runs are
// given at most drain to finish, and any still running at the deadline are
// canceled with ErrShutdown and abandoned cooperatively. ShutdownDrain
// returns after the workers have exited; the result reports whether every
// in-flight run finished on its own (true) or the drain deadline forced
// cancellation (false). A drain ≤ 0 cancels in-flight runs immediately.
//
// Shutdown is ShutdownDrain with an unbounded drain. Both are idempotent
// and safe to call concurrently; later calls simply wait for the workers.
func (rt *Runtime) ShutdownDrain(drain time.Duration) bool {
	rt.mu.Lock()
	rt.closed = true
	rt.cond.Broadcast()
	// No run can become active once closed is set, so the last finish closes
	// idle for good (see finish).
	var idle chan struct{}
	if len(rt.active) > 0 && drain > 0 {
		if rt.idle == nil {
			rt.idle = make(chan struct{})
		}
		idle = rt.idle
	}
	rt.mu.Unlock()
	if idle != nil {
		timer := time.NewTimer(drain)
		select {
		case <-idle:
		case <-timer.C:
		}
		timer.Stop()
	}
	drained := true
	rt.mu.Lock()
	for rs := range rt.active {
		drained = false
		rs.cancelWith(ErrShutdown)
	}
	rt.mu.Unlock()
	rt.wg.Wait()
	rt.san.shut()
	// Satellite invariant of the drain protocol: a bounded drain must never
	// strand a task. Workers exit only when closed && no run is active &&
	// the injection queue is empty, and an unexecuted task keeps its run's
	// join counters above zero — which keeps the run active — so after
	// wg.Wait every deque and the injection queue must be empty even when
	// the drain deadline forced cancellation mid-steal.
	rt.sanVerifyDrained()
	return drained
}
