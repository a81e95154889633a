package pfor

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cilkgo/internal/hyper"
	"cilkgo/internal/sched"
	"cilkgo/internal/schedsan"
)

// concatMonoid is the ordered list-append monoid: exact, but not
// commutative, so any fold out of index order shows.
var concatMonoid = hyper.FuncMonoid(
	func() []int { return nil },
	func(a, b []int) []int { return append(a, b...) },
)

type foldRuntime struct {
	name string
	opts []sched.Option
}

// foldRuntimes are the schedules every chunk-fold property is checked on:
// the serial elision, one worker, and four workers.
var foldRuntimes = []foldRuntime{
	{"serial", []sched.Option{sched.WithSerialElision()}},
	{"P=1", []sched.Option{sched.WithWorkers(1)}},
	{"P=4", []sched.Option{sched.WithWorkers(4)}},
}

// TestReduceSpawningBody: a body that spawns seals the strand's view segment
// in the middle of a chunk. The chunk's accumulator is seeded from the
// identity, so the fold still comes out exactly 0..n-1; seeding it from the
// strand's view instead would fold the sealed segment's contents twice. At
// n = 40 the grain is shorter than the spawn stride, so a chunk that does not
// spawn leaves a view behind that the next chunk's spawn seals.
func TestReduceSpawningBody(t *testing.T) {
	for _, n := range []int{40, 2000} {
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		for _, rc := range foldRuntimes {
			for _, form := range []string{"Reduce", "ReduceRange"} {
				side := make([]int32, n)
				var got []int
				runOn(t, rc.opts, func(c *sched.Context) {
					visit := func(c *sched.Context, i int) {
						if i%7 == 0 {
							c.Spawn(func(*sched.Context) { atomic.StoreInt32(&side[i], int32(i)+1) })
						}
					}
					if form == "Reduce" {
						got = Reduce(c, 0, n, concatMonoid, func(c *sched.Context, i int) []int {
							visit(c, i)
							return []int{i}
						})
						return
					}
					got = ReduceRange(c, 0, n, concatMonoid, func(c *sched.Context, l, h int) []int {
						var acc []int
						for i := l; i < h; i++ {
							visit(c, i)
							acc = append(acc, i)
						}
						return acc
					})
				})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d %s %s: fold is not 0..%d (len %d)", n, rc.name, form, n-1, len(got))
				}
				for i := 0; i < n; i += 7 {
					if atomic.LoadInt32(&side[i]) != int32(i)+1 {
						t.Fatalf("n=%d %s %s: spawned child of iteration %d did not run", n, rc.name, form, i)
					}
				}
			}
		}
	}
}

// TestReduceExactAcrossSchedules: exact monoids fold to identical results on
// the serial elision, one worker, and four workers under seeded fault plans;
// a float64 sum, re-associated at schedule-dependent chunk boundaries, stays
// within 1e-9 (relative) of the serial loop.
func TestReduceExactAcrossSchedules(t *testing.T) {
	const n = 5000
	runtimes := append([]foldRuntime(nil), foldRuntimes[:2]...)
	for seed := int64(1); seed <= 4; seed++ {
		runtimes = append(runtimes, foldRuntime{fmt.Sprintf("P=4 plan %d", seed), []sched.Option{
			sched.WithWorkers(4),
			sched.WithSanitize(schedsan.Options{
				Plan:        schedsan.RandomPlan(seed),
				Invariants:  true,
				OnViolation: func(r *schedsan.Report) { t.Errorf("plan %d: %s", seed, r) },
			}),
		}})
	}
	add64 := hyper.FuncMonoid(func() int64 { return 0 }, func(a, b int64) int64 { return a + b })
	addF := hyper.FuncMonoid(func() float64 { return 0 }, func(a, b float64) float64 { return a + b })
	term := func(i int) float64 { return 1 / float64(i+1) }
	var serialF float64
	for i := 0; i < n; i++ {
		serialF += term(i)
	}

	var refSum int64
	var refList []int
	for k, rc := range runtimes {
		var sum int64
		var list []int
		var fsum float64
		runOn(t, rc.opts, func(c *sched.Context) {
			sum = Reduce(c, 0, n, add64, func(_ *sched.Context, i int) int64 { return int64(i) * int64(i) })
			list = ReduceRange(c, 0, n, concatMonoid, func(_ *sched.Context, l, h int) []int {
				var acc []int
				for i := l; i < h; i++ {
					acc = append(acc, i*3)
				}
				return acc
			})
			fsum = Reduce(c, 0, n, addF, func(_ *sched.Context, i int) float64 { return term(i) })
		})
		if k == 0 {
			refSum, refList = sum, list
		} else if sum != refSum || !reflect.DeepEqual(list, refList) {
			t.Fatalf("%s: exact folds differ from the serial elision (sum %d vs %d)", rc.name, sum, refSum)
		}
		if rel := math.Abs(fsum-serialF) / serialF; rel > 1e-9 {
			t.Fatalf("%s: float sum %v vs serial %v (relative error %g)", rc.name, fsum, serialF, rel)
		}
	}
	if want := int64(n-1) * n * (2*n - 1) / 6; refSum != want {
		t.Fatalf("sum of squares = %d, want %d", refSum, want)
	}
	if len(refList) != n || refList[n-1] != 3*(n-1) {
		t.Fatalf("concat fold has %d elements", len(refList))
	}
}

// TestForRangeChunksPartition: under steal pressure at P = 4, ForRange's
// chunks are non-empty, at most one grain long, disjoint, and cover [lo, hi)
// exactly once. The chunk holding lo waits until another chunk has started,
// which can only happen once a thief has stolen the published remainder.
func TestForRangeChunksPartition(t *testing.T) {
	const lo, hi = -37, 9000
	grain := Grain(hi-lo, 4)
	rt := sched.New(sched.WithWorkers(4))
	defer rt.Shutdown()
	for trial := 0; trial < 5; trial++ {
		counts := make([]atomic.Int32, hi-lo)
		otherStarted := make(chan struct{})
		var once sync.Once
		var bad atomic.Value
		tk := mustSubmit(t, rt, func(c *sched.Context) {
			ForRange(c, lo, hi, func(_ *sched.Context, l, h int) {
				if h <= l || h-l > grain || l < lo || h > hi {
					bad.Store(fmt.Sprintf("chunk [%d,%d) outside [%d,%d) or not in (0, %d]", l, h, lo, hi, grain))
					return
				}
				if l != lo {
					once.Do(func() { close(otherStarted) })
				} else {
					select {
					case <-otherStarted:
					case <-time.After(10 * time.Second): // no thief came; reported below
					}
				}
				for i := l; i < h; i++ {
					counts[i-lo].Add(1)
				}
			})
		})
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		if msg := bad.Load(); msg != nil {
			t.Fatal(msg)
		}
		if st := tk.Stats(); st.RangeSteals == 0 {
			t.Fatalf("trial %d: no range steal, so no steal pressure", trial)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("trial %d: index %d covered %d times", trial, i+lo, got)
			}
		}
	}
}
