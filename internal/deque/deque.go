// Package deque implements the Chase–Lev lock-free work-stealing deque.
//
// The deque is the central data structure of the Cilk++ runtime (§3.2 of the
// paper): each worker owns one deque and treats it as a stack, pushing and
// popping spawned work at the bottom, while thieves steal one item at a time
// from the top. The owner's fast path is a handful of unsynchronized-looking
// atomic loads and stores; synchronization is paid only when the deque is
// nearly empty or when a thief interferes, which mirrors the paper's
// observation that "all communication and synchronization is incurred only
// when a worker runs out of work". Every successful pop and steal clears the
// ring slot it vacated, so the ring never retains pointers to completed work
// against the garbage collector.
//
// The implementation follows Chase and Lev, "Dynamic circular work-stealing
// deque" (SPAA 2005), with the memory-order fixes from Lê et al. (PPoPP
// 2013), expressed with Go's sequentially-consistent sync/atomic operations.
package deque

import "sync/atomic"

// minCapacity is the initial ring capacity. It must be a power of two.
const minCapacity = 64

// ring is an immutable-capacity circular buffer. Grown copies share no
// storage with their predecessor, so thieves racing on an old ring still read
// valid (if stale) values; staleness is rejected by the CAS on top.
type ring[T any] struct {
	mask int64
	buf  []atomic.Pointer[T]
}

func newRing[T any](capacity int64) *ring[T] {
	return &ring[T]{
		mask: capacity - 1,
		buf:  make([]atomic.Pointer[T], capacity),
	}
}

func (r *ring[T]) load(i int64) *T     { return r.buf[i&r.mask].Load() }
func (r *ring[T]) store(i int64, v *T) { r.buf[i&r.mask].Store(v) }

// clear nils slot i only if it still holds v. Thieves must clear this way:
// between a thief's winning CAS on top and its write to the slot, the owner
// may wrap bottom around the ring and push a new item into the same slot, so
// an unconditional store could destroy live work. The conditional store
// cannot be fooled by pointer reuse, because the thief still holds v
// unexecuted — v cannot be recycled and re-pushed until the thief releases
// it, which happens only after the clear.
func (r *ring[T]) clear(i int64, v *T) { r.buf[i&r.mask].CompareAndSwap(v, nil) }

func (r *ring[T]) grow(bottom, top int64) *ring[T] {
	next := newRing[T]((r.mask + 1) * 2)
	for i := top; i < bottom; i++ {
		next.store(i, r.load(i))
	}
	return next
}

// GateOp identifies one thief-side protocol step a Gate can perturb.
type GateOp uint8

// GateSteal is Steal's arbitration. A forced failure makes the steal report
// a lost race before it reads the top item; a delay stretches the window
// between that read and the CAS on top, the window in which the owner's
// last-item pop races the thief.
const GateSteal GateOp = 0

// Gate is an optional fault-injection seam over the thief-side protocol
// (internal/schedsan drives it through the scheduler). A nil gate — the
// default — costs Steal one predictable branch; the owner's
// PushBottom/PopBottom fast paths are not gated at all.
type Gate interface {
	// Fail reports whether the step should be forced to fail.
	Fail(op GateOp) bool
	// Delay may block the calling thief to stretch the window at op.
	Delay(op GateOp)
}

// Deque is a dynamically-sized work-stealing deque of *T.
//
// Exactly one goroutine, the owner, may call PushBottom and PopBottom.
// Any goroutine may call Steal. The zero value is not usable; construct
// with New.
type Deque[T any] struct {
	top    atomic.Int64 // next index to steal
	bottom atomic.Int64 // next index to push
	ring   atomic.Pointer[ring[T]]

	// gate is the optional fault-injection seam; nil outside sanitizer
	// runs. Installed once by SetGate before the deque is shared.
	gate Gate
}

// New returns an empty deque.
func New[T any]() *Deque[T] {
	d := &Deque[T]{}
	d.ring.Store(newRing[T](minCapacity))
	return d
}

// SetGate installs a fault-injection gate on the thief-side protocol. It
// must be called before the deque is shared with any thief (the field is
// written without synchronization).
func (d *Deque[T]) SetGate(g Gate) { d.gate = g }

// PushBottom pushes v onto the bottom (owner end) of the deque. It reports
// whether the deque was empty immediately before the push — i.e. whether this
// push made work visible where there was none. Schedulers use that edge to
// hoist wake probes out of the per-push fast path: pushes onto an already
// non-empty deque cannot strand a parked thief, so only the empty→non-empty
// transition needs to signal. The report is computed from loads the push
// already performs, so callers that ignore it pay nothing.
// Only the owner may call it.
func (d *Deque[T]) PushBottom(v *T) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	r := d.ring.Load()
	if b-t > r.mask { // full: grow
		r = r.grow(b, t)
		d.ring.Store(r)
	}
	r.store(b, v)
	d.bottom.Store(b + 1)
	return b == t
}

// PopBottom pops the most recently pushed item from the bottom. It returns
// nil if the deque is empty or the last item was lost to a concurrent thief.
// Only the owner may call it.
func (d *Deque[T]) PopBottom() *T {
	b := d.bottom.Load() - 1
	r := d.ring.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	switch {
	case t > b: // empty: restore
		d.bottom.Store(b + 1)
		return nil
	case t == b: // last element: race against thieves via CAS on top
		v := r.load(b)
		if d.top.CompareAndSwap(t, t+1) {
			// Won the race: the slot is dead until bottom wraps back past
			// it, so clear it now — otherwise the ring would pin the popped
			// item (and everything it references) against the GC until the
			// slot is overwritten. Losing thieves only discard the pointer
			// they loaded, so a plain store is safe.
			r.store(b, nil)
		} else {
			v = nil // a thief got it; the thief clears the slot
		}
		d.bottom.Store(b + 1)
		return v
	default:
		// top was observed strictly below b after bottom excluded b, so no
		// thief can take index b: one observing top == b necessarily
		// observes bottom <= b and rejects. Clear before returning, for the
		// same reason as above.
		v := r.load(b)
		r.store(b, nil)
		return v
	}
}

// Steal removes and returns the oldest item from the top (thief end), or nil
// if the deque is empty or the steal lost a race. Any goroutine may call it.
func (d *Deque[T]) Steal() *T {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	g := d.gate
	if g != nil && g.Fail(GateSteal) {
		return nil // injected lost race
	}
	r := d.ring.Load()
	v := r.load(t)
	if g != nil {
		g.Delay(GateSteal)
	}
	if !d.top.CompareAndSwap(t, t+1) {
		return nil // lost the race; caller may retry elsewhere
	}
	r.clear(t, v)
	return v
}

// StealBatch steals up to half of the victim's visible items, at least one,
// and returns the oldest (the one Steal would have returned). The rest are
// pushed onto dst, the thief's own deque, oldest first, so dst continues the
// victim's top-to-bottom order: the caller's next PopBottom sees the newest
// stolen item first and other thieves see the oldest. moved reports how many
// items went to dst. It is a loop of Steal calls, not one atomic claim: it
// stops early at the first lost race.
//
// The scheduler's thieves take one item (Steal). StealBatch exists only for
// cilkbench's deque.stealbatch_ns_per_item ladder rung.
//
// The caller must own dst, and dst must not be d. Returns (nil, 0) when the
// deque looked empty or the first steal lost its race.
func (d *Deque[T]) StealBatch(dst *Deque[T]) (first *T, moved int) {
	take := (d.Size() + 1) / 2
	if first = d.Steal(); first == nil {
		return nil, 0
	}
	for ; moved < take-1; moved++ {
		v := d.Steal()
		if v == nil {
			break
		}
		dst.PushBottom(v)
	}
	return first, moved
}

// Size reports an instantaneous estimate of the number of items. It is exact
// when called by the owner with no concurrent thieves.
func (d *Deque[T]) Size() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Empty reports whether the deque appeared empty at some instant.
func (d *Deque[T]) Empty() bool { return d.Size() == 0 }
