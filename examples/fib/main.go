// Fib runs the canonical Cilk fib benchmark and surfaces the scheduler's
// §3 story: spawn counts versus steal counts ("stealing is infrequent"),
// frame-depth statistics behind the stack-space bound, and a Cilkview
// parallelism profile measured from an instrumented serial run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"cilkgo"
	"cilkgo/internal/cilkview"
	"cilkgo/internal/sched"
	"cilkgo/internal/workloads"
)

const n = 30

func main() {
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the widest parallel run to this file")
	flag.Parse()
	// Measured Cilkview profile of fib(20) (instrumented serial run).
	profile, err := cilkview.Measure("fib(20)", func(c *sched.Context) {
		workloads.Fib(c, 20)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(cilkview.Render(profile, []int{1, 2, 4, 8, 16}, nil))

	// Parallel execution across worker counts.
	want := workloads.SerialFib(n)
	start := time.Now()
	workloads.SerialFib(n)
	serial := time.Since(start)
	fmt.Printf("serial fib(%d): %v\n\n", n, serial)
	fmt.Printf("%8s  %12s  %8s  %10s  %10s  %10s\n",
		"workers", "time", "speedup", "spawns", "steals", "max-depth")
	maxP := runtime.GOMAXPROCS(0)
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
		var got int64
		start := time.Now()
		tk, err := rt.Submit(context.Background(), func(c *cilkgo.Context) { got = workloads.Fib(c, n) })
		if err != nil {
			panic(err)
		}
		if err := tk.Wait(); err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		if traced {
			writeTrace(*traceOut, rt.Tracer().Stop())
		}
		rt.Shutdown()
		if got != want {
			panic("wrong fib result")
		}
		s := rt.Stats()
		fmt.Printf("%8d  %12v  %8.2f  %10d  %10d  %10d\n",
			p, elapsed, float64(serial)/float64(elapsed), s.Spawns, s.Steals, s.MaxDepth)
	}
	fmt.Println("\nSteals stay a tiny fraction of spawns: communication is incurred")
	fmt.Println("only when a worker runs out of work (§3.2).")
}

// writeTrace saves the drained trace as Chrome trace-event JSON and prints
// its utilization summary.
func writeTrace(path string, t *cilkgo.Trace) {
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	if err := cilkgo.WriteChromeTrace(f, t); err != nil {
		panic(err)
	}
	fmt.Printf("\nwrote %s (%d events)\n%s", path, t.Events(), cilkgo.Summarize(t).Render())
}
