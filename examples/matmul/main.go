// Matmul demonstrates §2.3's observation that dense matrix multiplication
// is highly parallel: it analyzes the 1000×1000 divide-and-conquer matmul
// dag (parallelism in the millions), then multiplies real matrices with
// cilk_for and reports the measured speedup over the serial baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cilkgo"
	"cilkgo/internal/vprog"
	"cilkgo/internal/workloads"
)

func main() {
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the widest parallel run to this file")
	flag.Parse()
	// Analytic side: the paper's 1000×1000 claim, on the exact dag.
	m := vprog.Analyze(vprog.MatMul(1024, 8))
	fmt.Printf("divide-and-conquer matmul(1024) dag:\n")
	fmt.Printf("  work        %d\n  span        %d\n  parallelism %.0f  (\"in the millions\", §2.3)\n\n",
		m.Work, m.Span, m.Parallelism)

	// Measured side: real multiplication on this machine.
	const n = 512
	rng := rand.New(rand.NewSource(1))
	a, b := workloads.NewMatrix(n), workloads.NewMatrix(n)
	for i := range a.Elts {
		a.Elts[i] = rng.Float64()
		b.Elts[i] = rng.Float64()
	}

	ref := workloads.NewMatrix(n)
	start := time.Now()
	workloads.SerialMatMul(a, b, ref)
	serial := time.Since(start)
	fmt.Printf("serial %d×%d multiply: %v\n", n, n, serial)

	maxP := runtime.GOMAXPROCS(0)
	fmt.Printf("%8s  %12s  %8s\n", "workers", "time", "speedup")
	for p := 1; p <= maxP; p *= 2 {
		opts := []cilkgo.Option{cilkgo.WithWorkers(p)}
		traced := *traceOut != "" && p*2 > maxP // trace the widest run
		if traced {
			opts = append(opts, cilkgo.WithTracing())
		}
		rt := cilkgo.New(opts...)
		if traced {
			rt.Tracer().Start()
		}
		out := workloads.NewMatrix(n)
		start := time.Now()
		tk, err := rt.Submit(context.Background(), func(c *cilkgo.Context) { workloads.MatMul(c, a, b, out) })
		if err != nil {
			panic(err)
		}
		if err := tk.Wait(); err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		var snap *cilkgo.Trace
		if traced {
			snap = rt.Tracer().Stop()
		}
		rt.Shutdown()
		for i := range out.Elts {
			if out.Elts[i] != ref.Elts[i] {
				panic("parallel result differs from serial")
			}
		}
		fmt.Printf("%8d  %12v  %8.2f\n", p, elapsed, float64(serial)/float64(elapsed))
		if snap != nil {
			f, err := os.Create(*traceOut)
			if err != nil {
				panic(err)
			}
			if err := cilkgo.WriteChromeTrace(f, snap); err != nil {
				panic(err)
			}
			f.Close()
			fmt.Printf("\nwrote %s (%d events)\n%s", *traceOut, snap.Events(), cilkgo.Summarize(snap).Render())
		}
	}
}
