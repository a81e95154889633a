// Cancellation-overhead experiments (C-series): the robustness layer's
// cancel gate is checked at spawn, task-start, and per-chunk boundaries, so
// these benchmarks pin the uncancelled hot path — the fib and matmul
// workloads of E6/E11 run through plain Run. cmd/cilkbench's fib and matmul
// workloads are the gated form.
package cilkgo_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cilkgo"
	"cilkgo/internal/workloads"
)

// BenchmarkCancelFibUncancelled measures a full fib(22) Run — the
// spawn-bound workload where per-spawn overhead is most visible.
func BenchmarkCancelFibUncancelled(b *testing.B) {
	rt := cilkgo.New()
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

// BenchmarkCancelLatencyFib measures abandonment latency: the time from
// firing the cancel to RunCtx returning with ErrCanceled, on a fib(24) run
// with plenty of outstanding tasks — the cost of draining (skipping) the
// spawn tree rather than running it.
func BenchmarkCancelLatencyFib(b *testing.B) {
	rt := cilkgo.New()
	defer rt.Shutdown()
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		var leaves atomic.Int64
		done := make(chan error, 1)
		go func() {
			done <- rt.RunCtx(ctx, func(c *cilkgo.Context) {
				var rec func(c *cilkgo.Context, n int)
				rec = func(c *cilkgo.Context, n int) {
					if n < 2 {
						leaves.Add(1)
						return
					}
					c.Spawn(func(c *cilkgo.Context) { rec(c, n-1) })
					rec(c, n-2)
					c.Sync()
				}
				rec(c, 24)
			})
		}()
		for leaves.Load() < 64 { // let the spawn tree get going
		}
		start := time.Now()
		cancel()
		err := <-done
		total += time.Since(start)
		if err != nil && !errors.Is(err, cilkgo.ErrCanceled) {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "cancel-ns/op")
}

// BenchmarkCancelMatmulUncancelled measures a 128×128 matrix multiply — the
// loop-bound workload where the per-chunk cancel check sits on the cilk_for
// path.
func BenchmarkCancelMatmulUncancelled(b *testing.B) {
	rt := cilkgo.New()
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
