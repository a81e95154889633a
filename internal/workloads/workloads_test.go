package workloads

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"cilkgo/internal/cilklock"
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
	rt := sched.New(sched.WithWorkers(p))
	defer rt.Shutdown()
	if err := mustSubmit(t, rt, fn).Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestQsortSorts(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 1000, 20000} {
		data := RandomFloats(n, int64(n)+1)
		want := make([]float64, n)
		copy(want, data)
		sort.Float64s(want)
		runPar(t, 8, func(c *sched.Context) { Qsort(c, data, 16) })
		if !reflect.DeepEqual(data, want) {
			t.Fatalf("n=%d: parallel qsort produced unsorted output", n)
		}
	}
}

func TestQsortDuplicatesAndSortedInput(t *testing.T) {
	// All-equal input exercises the max(begin+1, middle) guard from
	// Fig. 1 line 13 — without it the recursion would not shrink.
	data := make([]float64, 3000)
	runPar(t, 4, func(c *sched.Context) { Qsort(c, data, 8) })
	// Already sorted input (worst-case pivots).
	asc := make([]float64, 3000)
	for i := range asc {
		asc[i] = float64(i)
	}
	runPar(t, 4, func(c *sched.Context) { Qsort(c, asc, 8) })
	if !sort.Float64sAreSorted(asc) {
		t.Fatal("sorted input came out unsorted")
	}
}

func TestSerialQsortMatchesParallel(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw) % 4000
		a := RandomFloats(n, seed)
		b := append([]float64(nil), a...)
		SerialQsort(a, 16)
		rt := sched.New(sched.WithWorkers(4))
		defer rt.Shutdown()
		if err := mustSubmit(t, rt, func(c *sched.Context) { Qsort(c, b, 16) }).Wait(); err != nil {
			return false
		}
		return reflect.DeepEqual(a, b) && sort.Float64sAreSorted(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFillSin(t *testing.T) {
	a := make([]float64, 5000)
	runPar(t, 4, func(c *sched.Context) { FillSin(c, a) })
	for i, v := range a {
		x := float64(i) * 1e-3
		want := x - x*x*x/6 + x*x*x*x*x/120
		if v != want {
			t.Fatalf("a[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestFib(t *testing.T) {
	var got int64
	runPar(t, 8, func(c *sched.Context) { got = Fib(c, 22) })
	if want := SerialFib(22); got != want {
		t.Fatalf("Fib(22) = %d, want %d", got, want)
	}
}

func TestMatMulMatchesSerial(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(2))
	a, b := NewMatrix(n), NewMatrix(n)
	for i := range a.Elts {
		a.Elts[i] = rng.Float64()
		b.Elts[i] = rng.Float64()
	}
	want, got := NewMatrix(n), NewMatrix(n)
	SerialMatMul(a, b, want)
	runPar(t, 8, func(c *sched.Context) { MatMul(c, a, b, got) })
	if !reflect.DeepEqual(want.Elts, got.Elts) {
		t.Fatal("parallel matmul differs from serial")
	}
}

func TestMatMulIdentity(t *testing.T) {
	const n = 16
	a, id, out := NewMatrix(n), NewMatrix(n), NewMatrix(n)
	rng := rand.New(rand.NewSource(3))
	for i := range a.Elts {
		a.Elts[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	runPar(t, 4, func(c *sched.Context) { MatMul(c, a, id, out) })
	if !reflect.DeepEqual(a.Elts, out.Elts) {
		t.Fatal("A×I ≠ A")
	}
}

func TestNQueensKnownCounts(t *testing.T) {
	want := map[int]int64{1: 1, 4: 2, 5: 10, 6: 4, 7: 40, 8: 92}
	for n, w := range want {
		var got int64
		runPar(t, 8, func(c *sched.Context) { got = NQueens(c, n) })
		if got != w {
			t.Fatalf("NQueens(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestTreeWalkVariantsAgree(t *testing.T) {
	const n, modulus, work = 4000, 7, 4
	root := BuildTree(n, 11)

	var serial []*TreeNode
	WalkSerial(root, modulus, work, &serial)
	if len(serial) == 0 {
		t.Fatal("setup: no nodes have the property")
	}

	// Reducer variant must match the serial output exactly, order included.
	red := hyper.NewListAppend[*TreeNode]()
	runPar(t, 8, func(c *sched.Context) { WalkReducer(c, root, modulus, work, red) })
	if !reflect.DeepEqual(red.Value(), serial) {
		t.Fatal("reducer walk output differs from serial walk (order must match)")
	}

	// Mutex variant contains the same nodes but possibly scrambled.
	mu := cilklock.New("L")
	var locked []*TreeNode
	runPar(t, 8, func(c *sched.Context) { WalkMutex(c, root, modulus, work, mu, &locked) })
	if len(locked) != len(serial) {
		t.Fatalf("mutex walk found %d nodes, want %d", len(locked), len(serial))
	}
	sortNodes := func(s []*TreeNode) []int64 {
		vals := make([]int64, len(s))
		for i, n := range s {
			vals[i] = n.Value
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return vals
	}
	if !reflect.DeepEqual(sortNodes(locked), sortNodes(serial)) {
		t.Fatal("mutex walk node set differs from serial walk")
	}
}

func TestBFSMatchesSerial(t *testing.T) {
	g := RandomGraph(5000, 4, 77)
	want := SerialBFS(g, 0)
	var got []int32
	runPar(t, 8, func(c *sched.Context) { got = BFS(c, g, 0) })
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel BFS distances differ from serial BFS")
	}
	for v, d := range want {
		if d < 0 {
			t.Fatalf("vertex %d unreachable in a connected graph", v)
		}
	}
}

func TestBuildTreeDeterministicAndSized(t *testing.T) {
	a, b := BuildTree(500, 9), BuildTree(500, 9)
	var countNodes func(*TreeNode) int
	countNodes = func(n *TreeNode) int {
		if n == nil {
			return 0
		}
		return 1 + countNodes(n.Left) + countNodes(n.Right)
	}
	if countNodes(a) != 500 {
		t.Fatalf("tree has %d nodes, want 500", countNodes(a))
	}
	var va, vb []*TreeNode
	WalkSerial(a, 3, 0, &va)
	WalkSerial(b, 3, 0, &vb)
	if len(va) != len(vb) {
		t.Fatal("same seed built different trees")
	}
}
