package hyper

import (
	"testing"

	"cilkgo/internal/sched"
)

// TestAcquireRelease exercises the reducer pool directly: an acquired
// reducer behaves like a fresh one, and a released pointer that comes back
// from the pool starts from identity — both its final value and the
// releasing strand's view-map entry must be gone.
func TestAcquireRelease(t *testing.T) {
	m := FuncMonoid(func() int { return 0 }, func(a, b int) int { return a + b })
	rt := sched.New(sched.WithWorkers(1))
	defer rt.Shutdown()
	if err := mustSubmit(t, rt, func(c *sched.Context) {
		r1 := Acquire(m)
		*r1.View(c) = 41
		if got := *r1.View(c); got != 41 {
			t.Errorf("acquired reducer view = %d, want 41", got)
		}
		Release(c, r1)
		// Same strand, same type: the pool may (and on a single worker will)
		// hand r1's pointer straight back. The view must be identity again.
		r2 := Acquire(m)
		if got := *r2.View(c); got != 0 {
			t.Errorf("re-acquired reducer view = %d, want identity 0 (stale view survived Release)", got)
		}
		Release(c, r2)
	}).Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseDropsOnlyOwnView: releasing one reducer must not disturb the
// views of other live hyperobjects on the same strand.
func TestReleaseDropsOnlyOwnView(t *testing.T) {
	m := FuncMonoid(func() int { return 0 }, func(a, b int) int { return a + b })
	rt := sched.New(sched.WithWorkers(1))
	defer rt.Shutdown()
	if err := mustSubmit(t, rt, func(c *sched.Context) {
		keep := New(m)
		*keep.View(c) = 7
		tmp := Acquire(m)
		*tmp.View(c) = 99
		Release(c, tmp)
		if got := *keep.View(c); got != 7 {
			t.Errorf("unrelated view = %d after Release, want 7", got)
		}
	}).Wait(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkViewLookup measures the strand-local view fast path: repeated
// View(c) on the same reducer from one strand must hit the per-strand
// last-key cache (one pointer compare), not rescan the view map. The
// many-hyperobject variant is where the cache matters — without it each
// lookup walks O(#views) entries.
func BenchmarkViewLookup(b *testing.B) {
	bench := func(b *testing.B, others int) {
		rt := sched.New(sched.WithWorkers(1))
		defer rt.Shutdown()
		b.ReportAllocs()
		if err := mustSubmit(b, rt, func(c *sched.Context) {
			m := FuncMonoid(func() int64 { return 0 }, func(a, x int64) int64 { return a + x })
			for i := 0; i < others; i++ {
				r := New(m)
				*r.View(c) = int64(i) // populate the strand's view map
			}
			hot := New(m)
			*hot.View(c) = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*hot.View(c)++
			}
		}).Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("views=1", func(b *testing.B) { bench(b, 0) })
	b.Run("views=16", func(b *testing.B) { bench(b, 16) })
	b.Run("views=64", func(b *testing.B) { bench(b, 64) })
}

// BenchmarkViewLookupAlternating is the cache-miss path: two hot reducers
// accessed alternately defeat a single-entry cache, pinning the cost of the
// fallback scan so regressions in either path are visible.
func BenchmarkViewLookupAlternating(b *testing.B) {
	rt := sched.New(sched.WithWorkers(1))
	defer rt.Shutdown()
	b.ReportAllocs()
	if err := mustSubmit(b, rt, func(c *sched.Context) {
		m := FuncMonoid(func() int64 { return 0 }, func(a, x int64) int64 { return a + x })
		r1, r2 := New(m), New(m)
		*r1.View(c), *r2.View(c) = 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			*r1.View(c)++
			*r2.View(c)++
		}
	}).Wait(); err != nil {
		b.Fatal(err)
	}
}
