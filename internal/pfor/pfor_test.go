package pfor

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"cilkgo/internal/hyper"
	"cilkgo/internal/sched"
)

// mustSubmit submits fn with opts under a background context and fails the
// test if Submit refuses it; the caller awaits the returned Ticket.
func mustSubmit(t testing.TB, rt *sched.Runtime, fn func(*sched.Context), opts ...sched.RunOption) *sched.Ticket {
	t.Helper()
	tk, err := rt.Submit(context.Background(), fn, opts...)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return tk
}

func runPar(t *testing.T, p int, fn func(*sched.Context)) {
	t.Helper()
	runOn(t, []sched.Option{sched.WithWorkers(p)}, fn)
}

// runOn runs fn as one computation on a fresh runtime built from opts.
func runOn(t *testing.T, opts []sched.Option, fn func(*sched.Context)) {
	t.Helper()
	rt := sched.New(opts...)
	defer rt.Shutdown()
	if err := mustSubmit(t, rt, fn).Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	const n = 10000
	counts := make([]atomic.Int32, n)
	runPar(t, 8, func(c *sched.Context) {
		For(c, 0, n, func(_ *sched.Context, i int) {
			counts[i].Add(1)
		})
	})
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestForEmptyAndReversedRange(t *testing.T) {
	var ran atomic.Int32
	runPar(t, 2, func(c *sched.Context) {
		For(c, 5, 5, func(_ *sched.Context, i int) { ran.Add(1) })
		For(c, 9, 3, func(_ *sched.Context, i int) { ran.Add(1) })
	})
	if ran.Load() != 0 {
		t.Fatalf("body ran %d times on empty ranges", ran.Load())
	}
}

func TestForGrainOne(t *testing.T) {
	const n = 257 // odd size exercises uneven splits
	var sum atomic.Int64
	runPar(t, 4, func(c *sched.Context) {
		ForGrain(c, 0, n, 1, func(_ *sched.Context, i int) { sum.Add(int64(i)) })
	})
	if want := int64(n) * (n - 1) / 2; sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForNegativeBounds(t *testing.T) {
	var sum atomic.Int64
	runPar(t, 4, func(c *sched.Context) {
		For(c, -100, 100, func(_ *sched.Context, i int) { sum.Add(int64(i)) })
	})
	if sum.Load() != -100 { // -100 included, 100 excluded
		t.Fatalf("sum = %d, want -100", sum.Load())
	}
}

func TestForPreservesReducerOrder(t *testing.T) {
	// cilk_for iterations must fold reducer views in ascending iteration
	// order, exactly as the serial loop would (§5).
	const n = 2000
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	for _, grain := range []int{1, 7, 64, 5000} {
		l := hyper.NewListAppend[int]()
		runPar(t, 8, func(c *sched.Context) {
			ForGrain(c, 0, n, grain, func(c *sched.Context, i int) { l.PushBack(c, i) })
		})
		if got := l.Value(); !reflect.DeepEqual(got, want) {
			t.Fatalf("grain %d: iteration order violated (first few: %v)", grain, got[:10])
		}
	}
}

func TestForSyncScope(t *testing.T) {
	// The loop's implicit sync must not join children the caller spawned
	// before the loop.
	rt := sched.New(sched.WithWorkers(4))
	defer rt.Shutdown()
	release := make(chan struct{})
	var slowDone atomic.Bool
	var loopSawSlow atomic.Bool
	err := mustSubmit(t, rt, func(c *sched.Context) {
		c.Spawn(func(*sched.Context) {
			<-release
			slowDone.Store(true)
		})
		For(c, 0, 100, func(_ *sched.Context, i int) {})
		loopSawSlow.Store(slowDone.Load())
		close(release)
		c.Sync()
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if loopSawSlow.Load() {
		t.Fatal("cilk_for sync joined the caller's unrelated child")
	}
}

func TestEach(t *testing.T) {
	s := make([]int, 1000)
	runPar(t, 4, func(c *sched.Context) {
		Each(c, s, func(_ *sched.Context, i int, v *int) { *v = i * i })
	})
	for i, v := range s {
		if v != i*i {
			t.Fatalf("s[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestFor2D(t *testing.T) {
	const r, cNum = 37, 41
	var grid [r][cNum]atomic.Int32
	runPar(t, 4, func(c *sched.Context) {
		For2D(c, 0, r, 0, cNum, func(_ *sched.Context, i, j int) {
			grid[i][j].Add(1)
		})
	})
	for i := 0; i < r; i++ {
		for j := 0; j < cNum; j++ {
			if grid[i][j].Load() != 1 {
				t.Fatalf("cell (%d,%d) visited %d times", i, j, grid[i][j].Load())
			}
		}
	}
}

func TestGrainFormula(t *testing.T) {
	cases := []struct {
		n, p, want int
	}{
		{0, 4, 1},
		{-5, 4, 1},
		{1, 4, 1},
		{32, 4, 1},
		{64, 4, 2},
		{1 << 20, 1, 2048},  // capped
		{1 << 20, 0, 2048},  // p clamped to 1
		{100, 2, 7},         // ceil(100/16)
		{1000000, 64, 1954}, // ceil(1e6/512)
	}
	for _, tc := range cases {
		if got := Grain(tc.n, tc.p); got != tc.want {
			t.Errorf("Grain(%d,%d) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

// Property: every index in an arbitrary range is visited exactly once for
// arbitrary grain sizes.
func TestQuickCoverage(t *testing.T) {
	rt := sched.New(sched.WithWorkers(4))
	defer rt.Shutdown()
	f := func(nRaw, grainRaw uint16) bool {
		n := int(nRaw) % 3000
		grain := int(grainRaw)%300 + 1
		counts := make([]atomic.Int32, n)
		err := mustSubmit(t, rt, func(c *sched.Context) {
			ForGrain(c, 0, n, grain, func(_ *sched.Context, i int) { counts[i].Add(1) })
		}).Wait()
		if err != nil {
			return false
		}
		for i := range counts {
			if counts[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	rt := sched.New()
	defer rt.Shutdown()
	s := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mustSubmit(b, rt, func(c *sched.Context) {
			For(c, 0, len(s), func(_ *sched.Context, j int) { s[j] = float64(j) * 1.5 })
		}).Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReduceSum(t *testing.T) {
	rt := sched.New(sched.WithWorkers(8))
	defer rt.Shutdown()
	var got int64
	err := mustSubmit(t, rt, func(c *sched.Context) {
		got = Reduce(c, 1, 100001, hyper.FuncMonoid(
			func() int64 { return 0 },
			func(a, b int64) int64 { return a + b },
		), func(_ *sched.Context, i int) int64 { return int64(i) })
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(100000) * 100001 / 2; got != want {
		t.Fatalf("Reduce sum = %d, want %d", got, want)
	}
}

func TestReduceOrderedConcat(t *testing.T) {
	// A non-commutative monoid proves the fold happens in index order.
	rt := sched.New(sched.WithWorkers(8))
	defer rt.Shutdown()
	var got []int
	err := mustSubmit(t, rt, func(c *sched.Context) {
		got = Reduce(c, 0, 500, hyper.FuncMonoid(
			func() []int { return nil },
			func(a, b []int) []int { return append(a, b...) },
		), func(_ *sched.Context, i int) []int { return []int{i} })
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("Reduce fold out of order at %d: %d", i, v)
		}
	}
	if len(got) != 500 {
		t.Fatalf("len = %d, want 500", len(got))
	}
}

func TestReduceEmptyRange(t *testing.T) {
	rt := sched.New(sched.WithWorkers(2))
	defer rt.Shutdown()
	var got int
	err := mustSubmit(t, rt, func(c *sched.Context) {
		got = Reduce(c, 3, 3, hyper.FuncMonoid(
			func() int { return 42 },
			func(a, b int) int { return a + b },
		), func(*sched.Context, int) int { return 1 })
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("empty Reduce = %d, want the identity 42", got)
	}
}
