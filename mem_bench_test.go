// Memory-accounting experiments (M-series): the budget machinery sits on the
// same boundaries as the cancel gate — spawn, task start, loop chunk — plus a
// per-frame charge at allocation and a refund at recycle, all nil-gated when
// the run carries no budget. These benchmarks pin both sides of that switch:
// the NoBudget twins run fib and matmul through Submit with accounting
// disarmed, to be compared with the C-series uncancelled runs of the same
// `go test -bench` process, and the Budgeted twins run the identical
// workloads under a never-tripping budget to record what armed accounting —
// live-byte shards, peak watermarks, boundary checks — actually costs.
package cilkgo_test

import (
	"context"
	"testing"

	"cilkgo"
	"cilkgo/internal/workloads"
)

// submitWait runs one workload through the Submit API and waits it out —
// the M-series unit of work, matching the C-series' rt.Run shape.
func submitWait(b *testing.B, rt *cilkgo.Runtime, fn func(c *cilkgo.Context), opts ...cilkgo.RunOption) {
	b.Helper()
	tk, err := rt.Submit(context.Background(), fn, opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMemFibNoBudget is the spawn-bound workload with accounting
// disarmed: every spawn, task start, and frame recycle passes the budget and
// charge gates without taking them. Its base twin in the -ab gate is
// BenchmarkCancelFibUncancelled, measured in the same process.
func BenchmarkMemFibNoBudget(b *testing.B) {
	rt := cilkgo.New()
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int64
		submitWait(b, rt, func(c *cilkgo.Context) { got = workloads.Fib(c, 22) })
		if got != workloads.SerialFib(22) {
			b.Fatal("wrong fib")
		}
	}
}

// BenchmarkMemMatmulNoBudget is the loop-bound twin: the per-chunk budget
// gate rides the peel loop next to the cancel check.
func BenchmarkMemMatmulNoBudget(b *testing.B) {
	rt := cilkgo.New()
	defer rt.Shutdown()
	const n = 128
	a, bm, out := workloads.NewMatrix(n), workloads.NewMatrix(n), workloads.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64(i+j))
			bm.Set(i, j, float64(i-j))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitWait(b, rt, func(c *cilkgo.Context) { workloads.MatMul(c, a, bm, out) })
	}
}

// BenchmarkMemFibBudgeted arms full accounting with a budget fib(22) cannot
// reach: every frame is charged and refunded through the per-worker shards,
// every boundary reads the live sum against the budget, and the peak
// watermark is maintained — the worst case of the enforcement machinery with
// zero cancellations. Recorded, not gated: the budget is opt-in per run.
func BenchmarkMemFibBudgeted(b *testing.B) {
	rt := cilkgo.New()
	defer rt.Shutdown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got int64
		submitWait(b, rt, func(c *cilkgo.Context) { got = workloads.Fib(c, 22) },
			cilkgo.WithMemoryBudget(1<<40))
		if got != workloads.SerialFib(22) {
			b.Fatal("wrong fib")
		}
	}
}

// BenchmarkMemMatmulBudgeted is the budget-armed loop-bound twin.
func BenchmarkMemMatmulBudgeted(b *testing.B) {
	rt := cilkgo.New()
	defer rt.Shutdown()
	const n = 128
	a, bm, out := workloads.NewMatrix(n), workloads.NewMatrix(n), workloads.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64(i+j))
			bm.Set(i, j, float64(i-j))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitWait(b, rt, func(c *cilkgo.Context) { workloads.MatMul(c, a, bm, out) },
			cilkgo.WithMemoryBudget(1<<40))
	}
}
