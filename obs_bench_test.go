// Observability-overhead experiments (O-series): the online Cilkview clocks
// sit on the spawn, sync, task, and steal paths, gated on the run's clock
// pointer exactly like the cancel gate and the tracer. These benchmarks pin
// both sides of that gate:
//
//   - disabled: the C-series uncancelled fib/matmul runs (no observer) are
//     what a runtime built *without* WithObserver pays (cmd/cilkbench's fib
//     vs fib_observed is the gated form of the same comparison);
//   - enabled: the same workloads on an observed runtime measure what a
//     production deployment mounting cilkgo.DebugHandler actually pays for
//     live work/span accounting (EXPERIMENTS.md O1).
package cilkgo_test

import (
	"testing"

	"cilkgo"
	"cilkgo/internal/workloads"
)

// BenchmarkObsFibEnabled is fib(22) with the run observer installed — every
// spawn/sync boundary charges the strand clock, every task deposits its span.
// Compare against BenchmarkCancelFibUncancelled for the enabled overhead on
// the spawn-bound extreme.
func BenchmarkObsFibEnabled(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithObserver(cilkgo.NewObserver(8)))
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int64
		if err := rt.Run(func(c *cilkgo.Context) { got = workloads.Fib(c, 22) }); err != nil {
			b.Fatal(err)
		}
		if got != workloads.SerialFib(22) {
			b.Fatal("wrong fib")
		}
	}
}

// BenchmarkObsMatmulEnabled is the 128×128 multiply with the observer
// installed — the loop-bound extreme, where the clocks ride the lazy-loop
// episode boundaries rather than per-iteration.
func BenchmarkObsMatmulEnabled(b *testing.B) {
	rt := cilkgo.New(cilkgo.WithObserver(cilkgo.NewObserver(8)))
	defer rt.Shutdown()
	const n = 128
	a := workloads.NewMatrix(n)
	bm := workloads.NewMatrix(n)
	out := workloads.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64(i+j))
			bm.Set(i, j, float64(i-j))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Run(func(c *cilkgo.Context) { workloads.MatMul(c, a, bm, out) }); err != nil {
			b.Fatal(err)
		}
	}
}
