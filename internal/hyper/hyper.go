// Package hyper implements Cilk++ reducer hyperobjects (§5 of the paper).
//
// A reducer lets many strands update a nonlocal variable independently,
// without locks and without restructuring the program: each strand sees a
// private view of the object, and when strands join, views are combined with
// an associative Reduce operation. The runtime folds views in the exact
// order of the serial execution, so — as the paper requires for
// reducer_list_append — "the resulting list contains the identical elements
// in the same order as in a serial execution", under every schedule.
//
// The view-management protocol lives in internal/sched (see DESIGN.md):
// Spawn seals the spawning strand's view segment, Sync folds
// seg₀ ⊕ child₁ ⊕ seg₁ ⊕ … in spawn order, and views are created lazily on
// first access, so a hyperobject that a subtree never touches costs that
// subtree nothing.
package hyper

import (
	"fmt"
	"sync"

	"cilkgo/internal/sched"
)

// Monoid supplies the algebra of a reducer: an identity element and an
// associative combine. Combine may mutate and return left, which lets
// views grow in place (the common case for list appending).
type Monoid[T any] interface {
	Identity() T
	Combine(left, right T) T
}

// FuncMonoid builds a Monoid from two functions.
func FuncMonoid[T any](identity func() T, combine func(left, right T) T) Monoid[T] {
	return funcMonoid[T]{identity, combine}
}

type funcMonoid[T any] struct {
	identity func() T
	combine  func(left, right T) T
}

func (m funcMonoid[T]) Identity() T      { return m.identity() }
func (m funcMonoid[T]) Combine(l, r T) T { return m.combine(l, r) }

// CombineFunc returns m's combine as a plain function, for hot loops: a
// FuncMonoid's own combine, and m.Combine for any other monoid. Calling it
// is one indirect call instead of an interface call to a generic method
// that calls the closure.
func CombineFunc[T any](m Monoid[T]) func(left, right T) T {
	if fm, ok := m.(funcMonoid[T]); ok {
		return fm.combine
	}
	return m.Combine
}

// Reducer is a reducer hyperobject over monoid m. Create one with New (or
// one of the typed constructors in this package), update it through View
// from any strand, and read the final reduced value with Value after the
// computation completes.
//
// A Reducer may be reused across Submit calls; each computation starts from
// the identity and Value reflects the most recently completed one.
type Reducer[T any] struct {
	monoid   Monoid[T]
	final    T
	hasFinal bool
}

// New creates a reducer hyperobject over the given monoid.
func New[T any](m Monoid[T]) *Reducer[T] {
	return &Reducer[T]{monoid: m}
}

// view adapts a reducer value to the runtime's View protocol.
type view[T any] struct {
	r   *Reducer[T]
	val T
}

// Merge implements sched.View: it combines this view (earlier in serial
// order) with right (later in serial order).
func (v *view[T]) Merge(right sched.View) sched.View {
	rv, ok := right.(*view[T])
	if !ok || rv.r != v.r {
		panic(fmt.Sprintf("hyper: view merge across distinct hyperobjects (%T vs %T)", v, right))
	}
	v.val = v.r.monoid.Combine(v.val, rv.val)
	return v
}

// Finalize implements sched.Finalizer: the runtime delivers the computation's
// fully folded view when the root frame completes.
func (r *Reducer[T]) Finalize(v sched.View) {
	r.final = v.(*view[T]).val
	r.hasFinal = true
}

// View returns a pointer to the calling strand's private view of the
// reducer, creating it from the monoid identity on first access. The strand
// may read and modify the view freely without synchronization (§5: "a
// strand can access and change any of its view's state independently,
// without synchronizing with other strands").
func (r *Reducer[T]) View(c *sched.Context) *T {
	if v := c.LookupView(r); v != nil {
		return &v.(*view[T]).val
	}
	nv := &view[T]{r: r, val: r.monoid.Identity()}
	c.InstallView(r, nv)
	return &nv.val
}

// Value returns the final reduced value of the most recently completed
// computation. It must be called after the computation's Ticket.Wait
// returns (the runtime establishes the necessary happens-before edge). If
// the reducer was never touched, the monoid identity is returned.
func (r *Reducer[T]) Value() T {
	if !r.hasFinal {
		return r.monoid.Identity()
	}
	return r.final
}

// Reset clears the recorded final value.
func (r *Reducer[T]) Reset() {
	var zero T
	r.final = zero
	r.hasFinal = false
}

// reducerPools holds one sync.Pool of *Reducer[T] per element type T, keyed
// by the zero-size poolKey[T] type (distinct per instantiation, boxes
// without allocating).
var reducerPools sync.Map

type poolKey[T any] struct{}

func poolFor[T any]() *sync.Pool {
	k := poolKey[T]{}
	if p, ok := reducerPools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := reducerPools.LoadOrStore(k, &sync.Pool{New: func() any { return new(Reducer[T]) }})
	return p.(*sync.Pool)
}

// Acquire returns a pooled reducer over the given monoid, for transient
// reductions that would otherwise allocate a fresh hyperobject per call
// (pfor.Reduce is the canonical caller). Pair with Release.
func Acquire[T any](m Monoid[T]) *Reducer[T] {
	r := poolFor[T]().Get().(*Reducer[T])
	r.monoid = m
	return r
}

// Release returns a reducer obtained from Acquire to the pool. c must be the
// strand that read the final view: the strand's view-map entry for r is
// dropped first, because a later Acquire may hand the very same reducer
// pointer back to the same strand, and a surviving entry would resurrect the
// retired view (and its value) instead of starting a fresh reduction. The
// reducer must not be used after Release.
func Release[T any](c *sched.Context, r *Reducer[T]) {
	c.DropView(r)
	var zero T
	r.monoid, r.final, r.hasFinal = nil, zero, false
	poolFor[T]().Put(r)
}
