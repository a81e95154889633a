package hyper

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

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

// runPar executes fn on a fresh parallel runtime with p workers.
func runPar(t *testing.T, p int, seed int64, fn func(*sched.Context)) {
	t.Helper()
	rt := sched.New(sched.WithWorkers(p), sched.WithStealSeed(seed))
	defer rt.Shutdown()
	if err := mustSubmit(t, rt, fn).Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

// runSerialElision executes fn as the serial elision.
func runSerialElision(t *testing.T, fn func(*sched.Context)) {
	t.Helper()
	rt := sched.New(sched.WithSerialElision())
	if err := mustSubmit(t, rt, fn).Wait(); err != nil {
		t.Fatalf("Wait(serial): %v", err)
	}
}

func TestAdderSum(t *testing.T) {
	sum := NewAdder[int64]()
	const n = 10000
	runPar(t, 8, 1, func(c *sched.Context) {
		var rec func(c *sched.Context, lo, hi int)
		rec = func(c *sched.Context, lo, hi int) {
			if hi-lo <= 16 {
				for i := lo; i < hi; i++ {
					sum.Add(c, int64(i))
				}
				return
			}
			mid := (lo + hi) / 2
			c.Spawn(func(c *sched.Context) { rec(c, lo, mid) })
			rec(c, mid, hi)
			c.Sync()
		}
		rec(c, 1, n+1)
	})
	if want := int64(n) * (n + 1) / 2; sum.Value() != want {
		t.Fatalf("sum = %d, want %d", sum.Value(), want)
	}
}

func TestAdderUntouchedIsIdentity(t *testing.T) {
	sum := NewAdder[int]()
	runPar(t, 2, 1, func(c *sched.Context) {})
	if sum.Value() != 0 {
		t.Fatalf("untouched adder = %d, want 0", sum.Value())
	}
}

// inorderWalk spawns a recursive in-order traversal appending indices
// [lo,hi) to the list reducer, the Fig. 7 pattern.
func inorderWalk(c *sched.Context, l ListAppend[int], lo, hi int) {
	if hi-lo == 1 {
		l.PushBack(c, lo)
		return
	}
	mid := (lo + hi) / 2
	c.Spawn(func(c *sched.Context) { inorderWalk(c, l, lo, mid) })
	inorderWalk(c, l, mid, hi)
	c.Sync()
}

func TestListAppendSerialOrder(t *testing.T) {
	// §5: the resulting list must contain the identical elements in the
	// same order as in a serial execution — under every schedule.
	const n = 512
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	for _, p := range []int{1, 2, 4, 8} {
		for seed := int64(0); seed < 5; seed++ {
			l := NewListAppend[int]()
			runPar(t, p, seed, func(c *sched.Context) { inorderWalk(c, l, 0, n) })
			if got := l.Value(); !reflect.DeepEqual(got, want) {
				t.Fatalf("P=%d seed=%d: order violated: got %v", p, seed, got[:min(16, len(got))])
			}
		}
	}
}

func TestListAppendMatchesSerialElision(t *testing.T) {
	program := func(c *sched.Context, l ListAppend[string]) {
		l.PushBack(c, "pre")
		for i := 0; i < 8; i++ {
			i := i
			c.Spawn(func(c *sched.Context) {
				l.PushBack(c, "child"+string(rune('0'+i)))
			})
			l.PushBack(c, "between"+string(rune('0'+i)))
		}
		c.Sync()
		l.PushBack(c, "post")
	}
	ls := NewListAppend[string]()
	runSerialElision(t, func(c *sched.Context) { program(c, ls) })
	want := ls.Value()

	lp := NewListAppend[string]()
	runPar(t, 6, 42, func(c *sched.Context) { program(c, lp) })
	if got := lp.Value(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel list %v differs from serial %v", got, want)
	}
}

func TestReducerReuseAcrossRuns(t *testing.T) {
	sum := NewAdder[int]()
	rt := sched.New(sched.WithWorkers(2))
	defer rt.Shutdown()
	for run := 1; run <= 3; run++ {
		if err := mustSubmit(t, rt, func(c *sched.Context) { sum.Add(c, run) }).Wait(); err != nil {
			t.Fatal(err)
		}
		if sum.Value() != run {
			t.Fatalf("run %d: Value = %d, want %d (each run starts fresh)", run, sum.Value(), run)
		}
	}
	sum.Reset()
	if sum.Value() != 0 {
		t.Fatalf("after Reset: Value = %d, want 0", sum.Value())
	}
}

func TestMaxIndexEarliestTie(t *testing.T) {
	m := NewMaxIndex[int]()
	vals := []int{3, 9, 2, 9, 5, 9}
	runPar(t, 4, 3, func(c *sched.Context) {
		var rec func(c *sched.Context, lo, hi int)
		rec = func(c *sched.Context, lo, hi int) {
			if hi-lo == 1 {
				m.Update(c, vals[lo], lo)
				return
			}
			mid := (lo + hi) / 2
			c.Spawn(func(c *sched.Context) { rec(c, lo, mid) })
			rec(c, mid, hi)
			c.Sync()
		}
		rec(c, 0, len(vals))
	})
	val, idx, ok := m.Max()
	if !ok || val != 9 || idx != 1 {
		t.Fatalf("Max = (%d,%d,%v), want (9,1,true): ties must keep the serially earliest index", val, idx, ok)
	}
}

func TestMinIndex(t *testing.T) {
	m := NewMinIndex[float64]()
	vals := []float64{2.5, -1, 7, -1, 3}
	runPar(t, 4, 5, func(c *sched.Context) {
		for i, v := range vals {
			i, v := i, v
			c.Spawn(func(c *sched.Context) { m.Update(c, v, i) })
		}
		c.Sync()
	})
	val, idx, ok := m.Min()
	if !ok || val != -1 || idx != 1 {
		t.Fatalf("Min = (%v,%d,%v), want (-1,1,true)", val, idx, ok)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	m := NewMaxIndex[int]()
	runPar(t, 2, 1, func(c *sched.Context) {})
	if _, _, ok := m.Max(); ok {
		t.Fatal("Max on untouched reducer reported ok")
	}
}

func TestStringReducer(t *testing.T) {
	s := NewString()
	const n = 64
	runPar(t, 8, 11, func(c *sched.Context) {
		var rec func(c *sched.Context, lo, hi int)
		rec = func(c *sched.Context, lo, hi int) {
			if hi-lo == 1 {
				s.Append(c, string(rune('a'+lo%26)))
				return
			}
			mid := (lo + hi) / 2
			c.Spawn(func(c *sched.Context) { rec(c, lo, mid) })
			rec(c, mid, hi)
			c.Sync()
		}
		rec(c, 0, n)
	})
	var want strings.Builder
	for i := 0; i < n; i++ {
		want.WriteRune(rune('a' + i%26))
	}
	if s.String() != want.String() {
		t.Fatalf("string = %q, want %q", s.String(), want.String())
	}
}

func TestBitwiseReducers(t *testing.T) {
	and := NewAnder[uint32]()
	or := NewOrer[uint32]()
	xor := NewXorer[uint32]()
	inputs := []uint32{0b1110, 0b0111, 0b1111, 0b0110}
	runPar(t, 4, 2, func(c *sched.Context) {
		for _, x := range inputs {
			x := x
			c.Spawn(func(c *sched.Context) {
				and.And(c, x)
				or.Or(c, x)
				xor.Xor(c, x)
			})
		}
		c.Sync()
	})
	if got := and.Value(); got != 0b0110 {
		t.Fatalf("AND = %b, want 0110", got)
	}
	if got := or.Value(); got != 0b1111 {
		t.Fatalf("OR = %b, want 1111", got)
	}
	if got := xor.Value(); got != 0b1110^0b0111^0b1111^0b0110 {
		t.Fatalf("XOR = %b", got)
	}
}

func TestBitwiseIdentities(t *testing.T) {
	and := NewAnder[uint8]()
	runPar(t, 2, 1, func(c *sched.Context) {})
	if and.Value() != 0xff {
		t.Fatalf("untouched AND identity = %x, want ff", and.Value())
	}
}

func TestMapUnion(t *testing.T) {
	m := NewMapUnion[string, int](func(left, right int) int { return left + right })
	runPar(t, 4, 9, func(c *sched.Context) {
		for i := 0; i < 100; i++ {
			i := i
			c.Spawn(func(c *sched.Context) {
				m.Merge(c, "count", 1, func(old, n int) int { return old + n })
				if i == 0 {
					m.Set(c, "first", 1)
				}
			})
		}
		c.Sync()
	})
	got := m.Value()
	if got["count"] != 100 {
		t.Fatalf(`count = %d, want 100`, got["count"])
	}
	if got["first"] != 1 {
		t.Fatalf(`first = %d, want 1`, got["first"])
	}
}

func TestHolderIsolation(t *testing.T) {
	// Each strand gets private scratch storage; concurrent strands must
	// never observe each other's writes mid-use.
	h := NewHolder(func() []int { return make([]int, 0, 8) })
	ok := NewAnder[int]()
	runPar(t, 8, 4, func(c *sched.Context) {
		for i := 0; i < 200; i++ {
			i := i
			c.Spawn(func(c *sched.Context) {
				buf := h.View(c)
				*buf = (*buf)[:0]
				for j := 0; j < 5; j++ {
					*buf = append(*buf, i)
				}
				good := 1
				for _, v := range *buf {
					if v != i {
						good = 0
					}
				}
				ok.And(c, good)
			})
		}
		c.Sync()
	})
	if ok.Value() != 1 {
		t.Fatal("holder view leaked between concurrent strands")
	}
}

func TestMergeAcrossReducersPanics(t *testing.T) {
	a, b := NewAdder[int](), NewAdder[int]()
	va := &view[int]{r: a.Reducer}
	vb := &view[int]{r: b.Reducer}
	defer func() {
		if recover() == nil {
			t.Fatal("merging views of distinct reducers must panic")
		}
	}()
	va.Merge(vb)
}

// Property: for random spawn/step programs, the parallel list-append result
// equals the serial-elision result, for any seed and worker count.
func TestQuickListOrderMatchesSerial(t *testing.T) {
	type cfg struct {
		Seed    int64
		Workers uint8
	}
	// A program is a pre-generated random tree of actions so that its
	// behaviour is identical under every schedule: emit appends a value,
	// spawn runs a child subtree, sync joins.
	type action struct {
		kind  int // 0 emit, 1 spawn, 2 sync
		value int
		child int // index into nodes, for spawns
	}
	type node struct{ acts []action }
	f := func(tc cfg) bool {
		p := int(tc.Workers)%7 + 1
		rng := rand.New(rand.NewSource(tc.Seed))
		var nodes []node
		nextVal := 0
		var gen func(depth int) int
		gen = func(depth int) int {
			idx := len(nodes)
			nodes = append(nodes, node{})
			var acts []action
			for op := 0; op < 6; op++ {
				switch r := rng.Intn(3); {
				case r == 0 && depth < 4:
					acts = append(acts, action{kind: 1, child: gen(depth + 1)})
				case r == 1:
					acts = append(acts, action{kind: 2})
				default:
					acts = append(acts, action{kind: 0, value: nextVal})
					nextVal++
				}
			}
			nodes[idx].acts = acts
			return idx
		}
		root := gen(0)
		program := func(c *sched.Context, l ListAppend[int]) {
			var walk func(c *sched.Context, idx int)
			walk = func(c *sched.Context, idx int) {
				for _, a := range nodes[idx].acts {
					switch a.kind {
					case 0:
						l.PushBack(c, a.value)
					case 1:
						child := a.child
						c.Spawn(func(c *sched.Context) { walk(c, child) })
					case 2:
						c.Sync()
					}
				}
			}
			walk(c, root)
		}
		serial := NewListAppend[int]()
		rtS := sched.New(sched.WithSerialElision())
		if err := mustSubmit(t, rtS, func(c *sched.Context) { program(c, serial) }).Wait(); err != nil {
			return false
		}
		par := NewListAppend[int]()
		rtP := sched.New(sched.WithWorkers(p), sched.WithStealSeed(tc.Seed))
		defer rtP.Shutdown()
		if err := mustSubmit(t, rtP, func(c *sched.Context) { program(c, par) }).Wait(); err != nil {
			return false
		}
		return reflect.DeepEqual(serial.Value(), par.Value())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAdderAdd(b *testing.B) {
	rt := sched.New(sched.WithWorkers(1))
	defer rt.Shutdown()
	sum := NewAdder[int64]()
	b.ReportAllocs()
	b.ResetTimer()
	if err := mustSubmit(b, rt, func(c *sched.Context) {
		for i := 0; i < b.N; i++ {
			sum.Add(c, 1)
		}
	}).Wait(); err != nil {
		b.Fatal(err)
	}
}

// TestQuickMonoidLaws: every built-in monoid satisfies identity and
// associativity — the algebraic preconditions §5's ordering guarantee
// rests on.
func TestQuickMonoidLaws(t *testing.T) {
	intAdd := NewAdder[int64]().Reducer
	and := NewAnder[uint64]().Reducer
	or := NewOrer[uint64]().Reducer
	xor := NewXorer[uint64]().Reducer

	checkInt := func(name string, m Monoid[int64]) {
		f := func(a, b, c int64) bool {
			left := m.Combine(m.Combine(a, b), c)
			right := m.Combine(a, m.Combine(b, c))
			if left != right {
				return false
			}
			return m.Combine(m.Identity(), a) == a && m.Combine(a, m.Identity()) == a
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	checkUint := func(name string, m Monoid[uint64]) {
		f := func(a, b, c uint64) bool {
			left := m.Combine(m.Combine(a, b), c)
			right := m.Combine(a, m.Combine(b, c))
			if left != right {
				return false
			}
			return m.Combine(m.Identity(), a) == a && m.Combine(a, m.Identity()) == a
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	checkInt("add", intAdd.monoid)
	checkUint("and", and.monoid)
	checkUint("or", or.monoid)
	checkUint("xor", xor.monoid)
}

// TestQuickListMonoidAssociative: list append is associative and preserves
// element order across any bracketing.
func TestQuickListMonoidAssociative(t *testing.T) {
	m := NewListAppend[int]().Reducer.monoid
	f := func(a, b, c []int) bool {
		ab := m.Combine(append([]int(nil), a...), b)
		left := m.Combine(ab, c)
		bc := m.Combine(append([]int(nil), b...), c)
		right := m.Combine(append([]int(nil), a...), bc)
		return reflect.DeepEqual(left, right) || (len(left) == 0 && len(right) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxIndexMonoidAssociative under explicit triples including ties.
func TestMaxIndexMonoidAssociative(t *testing.T) {
	m := NewMaxIndex[int]().Reducer.monoid
	vals := []maxIndexState[int]{
		{}, {val: 5, index: 1, ok: true}, {val: 5, index: 2, ok: true},
		{val: 9, index: 0, ok: true}, {val: -3, index: 7, ok: true},
	}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range vals {
				left := m.Combine(m.Combine(a, b), c)
				right := m.Combine(a, m.Combine(b, c))
				if left != right {
					t.Fatalf("associativity broken: (%v⊕%v)⊕%v = %v, %v⊕(%v⊕%v) = %v",
						a, b, c, left, a, b, c, right)
				}
			}
		}
	}
}
