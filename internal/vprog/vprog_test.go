package vprog

import (
	"testing"
	"testing/quick"
)

func TestLeafMetrics(t *testing.T) {
	m := Analyze(Program{Name: "leaf", Root: func() Frame { return Leaf(7) }})
	if m.Work != 7 || m.Span != 7 || m.Parallelism != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Frames != 1 || m.MaxDepth != 1 {
		t.Fatalf("frames/depth = %+v", m)
	}
}

// TestCriticalBoundsParallelism: two spawned Critical(100) segments are
// parallel in the dag, whose span stays 100, but they hold the one lock in
// turn, so no schedule finishes in under 200 units: parallelism 1.
func TestCriticalBoundsParallelism(t *testing.T) {
	crit := func() Frame { return Seq(Step{Kind: Critical, Cost: 100}) }
	p := Program{Name: "two-critical", Root: func() Frame {
		return Seq(Step{Kind: Spawn, Child: crit()}, Step{Kind: Spawn, Child: crit()}, Step{Kind: Sync})
	}}
	m := Analyze(p)
	if m.Work != 200 || m.Span != 100 || m.Critical != 200 {
		t.Fatalf("Work/Span/Critical = %d/%d/%d, want 200/100/200", m.Work, m.Span, m.Critical)
	}
	if m.Parallelism != 1 {
		t.Fatalf("Parallelism = %v, want 1", m.Parallelism)
	}
}

func TestSpawnSpanRecurrence(t *testing.T) {
	// exec 2; spawn leaf(10); exec 3; sync; exec 1.
	// Work = 16. Span = 2 + max(10, 3) + 1 = 13.
	p := Program{Name: "t", Root: func() Frame {
		return Seq(
			Step{Kind: Exec, Cost: 2},
			Step{Kind: Spawn, Child: Leaf(10)},
			Step{Kind: Exec, Cost: 3},
			Step{Kind: Sync},
			Step{Kind: Exec, Cost: 1},
		)
	}}
	m := Analyze(p)
	if m.Work != 16 {
		t.Fatalf("Work = %d, want 16", m.Work)
	}
	if m.Span != 13 {
		t.Fatalf("Span = %d, want 13", m.Span)
	}
	if m.Spawns != 1 || m.Frames != 2 {
		t.Fatalf("counts = %+v", m)
	}
}

func TestCallIsSerial(t *testing.T) {
	// exec 2; call leaf(10); exec 3. Span = work = 15.
	p := Program{Name: "t", Root: func() Frame {
		return Seq(
			Step{Kind: Exec, Cost: 2},
			Step{Kind: Call, Child: Leaf(10)},
			Step{Kind: Exec, Cost: 3},
		)
	}}
	m := Analyze(p)
	if m.Work != 15 || m.Span != 15 {
		t.Fatalf("metrics = %+v, want work=span=15", m)
	}
}

func TestImplicitSyncAtEnd(t *testing.T) {
	// spawn leaf(10) and return without sync: span must include the child.
	p := Program{Name: "t", Root: func() Frame {
		return Seq(
			Step{Kind: Exec, Cost: 1},
			Step{Kind: Spawn, Child: Leaf(10)},
		)
	}}
	m := Analyze(p)
	if m.Span != 11 {
		t.Fatalf("Span = %d, want 11 (implicit sync)", m.Span)
	}
}

func TestFibMetrics(t *testing.T) {
	// fib frames: leaves cost 1; internal frames cost 2 (1 before spawns,
	// 1 after sync). Span(n) = 2 + span(n-1), span(0)=span(1)=1, so
	// span(n) = 2n - 1.
	m := Analyze(Fib(10))
	if want := int64(2*10 - 1); m.Span != want {
		t.Fatalf("fib(10) span = %d, want %d", m.Span, want)
	}
	// frames(n) = 1 + frames(n-1) + frames(n-2); frames(0)=frames(1)=1 →
	// frames(n) = 2*fib(n+1) - 1 with fib(1)=fib(2)=1.
	fib := []int64{0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
	if want := 2*fib[11] - 1; m.Frames != want {
		t.Fatalf("fib(10) frames = %d, want %d", m.Frames, want)
	}
	if m.Work <= m.Span {
		t.Fatalf("work %d must exceed span %d", m.Work, m.Span)
	}
}

func TestQsortParallelismIsLogarithmic(t *testing.T) {
	// §3.1/Fig. 3: quicksort's expected parallelism is O(lg n). Check that
	// parallelism grows far slower than n, and that the span is dominated
	// by the root partition (span ≥ n).
	small := Analyze(Qsort(1_000, 42, 16))
	big := Analyze(Qsort(100_000, 42, 16))
	if big.Span < 100_000 {
		t.Fatalf("qsort span %d must be at least n (root partition)", big.Span)
	}
	ratio := big.Parallelism / small.Parallelism
	if ratio > 4 {
		t.Fatalf("parallelism grew ×%.1f over ×100 input growth; expected logarithmic growth", ratio)
	}
	if big.Parallelism < 3 || big.Parallelism > 40 {
		t.Fatalf("qsort(1e5) parallelism = %.2f, expected O(lg n) scale", big.Parallelism)
	}
}

func TestLoopSpawnLazyAndWide(t *testing.T) {
	const n = 100_000
	m := Analyze(LoopSpawn(n, 5))
	if m.Work != 6*n { // 5 per body + 1 per spawn on the root strand
		t.Fatalf("Work = %d, want %d", m.Work, 6*n)
	}
	// The spawning strand is serial: span = n spawn instructions plus the
	// last body. This Θ(n) span is the §2 motivation for cilk_for's
	// divide-and-conquer recursion.
	if m.Span != n+5 {
		t.Fatalf("Span = %d, want %d", m.Span, n+5)
	}
	if m.Spawns != n {
		t.Fatalf("Spawns = %d, want %d", m.Spawns, n)
	}
	if m.MaxDepth != 2 {
		t.Fatalf("MaxDepth = %d, want 2", m.MaxDepth)
	}
}

func TestPForSpanLogarithmic(t *testing.T) {
	m := Analyze(PFor(1<<16, 1, 1))
	// span ≈ lg(n) splits + 1 leaf; must be far below work.
	if m.Span > 64 {
		t.Fatalf("pfor span = %d, want O(lg n)", m.Span)
	}
	if m.Work < 1<<16 {
		t.Fatalf("pfor work = %d too small", m.Work)
	}
}

// TestParallelismMagnitudes is the analytic core of experiment E11: the
// §2.3 claims about representative workloads.
func TestParallelismMagnitudes(t *testing.T) {
	matmul := Analyze(MatMul(512, 8))
	if matmul.Parallelism < 1e5 {
		t.Fatalf("matmul(512) parallelism = %.0f, want millions-scale (≥1e5)", matmul.Parallelism)
	}
	bfs := Analyze(BFS(1_000_000, 8, 24, 7))
	if bfs.Parallelism < 1e3 || bfs.Parallelism > 1e5 {
		t.Fatalf("BFS parallelism = %.0f, want thousands-scale", bfs.Parallelism)
	}
	spmv := Analyze(SpMV(10_000, 5, 100, 64))
	if spmv.Parallelism < 1e2 || spmv.Parallelism > 1e4 {
		t.Fatalf("SpMV parallelism = %.0f, want hundreds-scale", spmv.Parallelism)
	}
}

func TestSerialParallelAmdahl(t *testing.T) {
	// 50% serial work: parallelism ≈ 2 no matter how wide the parallel
	// part. Grain 64 keeps the loop's split bookkeeping negligible.
	m := Analyze(SerialParallel(10_000, 10_000, 64))
	if m.Parallelism < 1.8 || m.Parallelism > 2.2 {
		t.Fatalf("parallelism = %.2f, want ≈ 2 for a 50%% serial program", m.Parallelism)
	}
}

func TestTreeWalkDeterministic(t *testing.T) {
	a := Analyze(TreeWalk(5000, 3, 2, 10, 200))
	b := Analyze(TreeWalk(5000, 3, 2, 10, 200))
	if a != b {
		t.Fatalf("same seed produced different metrics: %+v vs %+v", a, b)
	}
	c := Analyze(TreeWalk(5000, 4, 2, 10, 200))
	if a == c {
		t.Fatal("different seeds produced identical metrics (suspicious)")
	}
}

func TestNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative cost must panic")
		}
	}()
	Analyze(Program{Name: "bad", Root: func() Frame {
		return Seq(Step{Kind: Exec, Cost: -1})
	}})
}

// Property: Analyze agrees exactly with the explicit dag model on random
// fork-join programs (work, span).
func TestQuickAnalyzeMatchesDag(t *testing.T) {
	f := func(seed uint64) bool {
		p := RandomFJ(seed, 4)
		m := Analyze(p)
		g := ToDag(p)
		gm, err := g.Analyze()
		if err != nil {
			return false
		}
		return m.Work == gm.Work && m.Span == gm.Span
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Work and Span laws' precondition, span ≤ work, holds for
// every generator at assorted sizes.
func TestQuickGeneratorSanity(t *testing.T) {
	f := func(seed uint64) bool {
		progs := []Program{
			Fib(int(seed%12) + 2),
			Qsort(int64(seed%5000)+10, seed, 8),
			LoopSpawn(int64(seed%1000)+1, int64(seed%9)+1),
			PFor(int64(seed%4096)+1, 3, 16),
			TreeWalk(int64(seed%2000)+1, seed, 1, 5, 300),
			RandomFJ(seed, 5),
		}
		for _, p := range progs {
			m := Analyze(p)
			if m.Span > m.Work || m.Span < 0 || m.Frames < 1 {
				return false
			}
			if m.Work > 0 && m.Span == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAnalyzeQsort1e6(b *testing.B) {
	p := Qsort(1_000_000, 1, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(p)
	}
}

// TestMatMulMetricsClosedForm cross-validates the memoized closed-form
// computation against the frame-walking Analyze.
func TestMatMulMetricsClosedForm(t *testing.T) {
	for _, tc := range []struct{ n, grain int64 }{{8, 1}, {32, 4}, {64, 8}, {64, 64}} {
		want := Analyze(MatMul(tc.n, tc.grain))
		got := MatMulMetrics(tc.n, tc.grain)
		if got != want {
			t.Fatalf("n=%d grain=%d:\n got %+v\nwant %+v", tc.n, tc.grain, got, want)
		}
	}
	// Paper scale: 1000×1000-class multiply has parallelism in the millions.
	big := MatMulMetrics(1024, 8)
	if big.Parallelism < 1e6 {
		t.Fatalf("matmul(1024) parallelism = %.0f, want ≥ 1e6", big.Parallelism)
	}
}
