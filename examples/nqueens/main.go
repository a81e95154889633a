// Nqueens counts n-queens placements with irregular parallel recursion and
// an opadd reducer — the shape of workload (unpredictable subtree sizes)
// for which the paper's randomized work stealing provides its load-balance
// guarantee with no tuning from the programmer.
package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cilkgo"
	"cilkgo/internal/vprog"
	"cilkgo/internal/workloads"
)

const n = 11

func main() {
	// Serial reference via the single-worker runtime.
	serialRT := cilkgo.New(cilkgo.WithWorkers(1))
	var want int64
	start := time.Now()
	tk, err := serialRT.Submit(context.Background(), func(c *cilkgo.Context) { want = workloads.NQueens(c, n) })
	if err != nil {
		panic(err)
	}
	if err := tk.Wait(); err != nil {
		panic(err)
	}
	serial := time.Since(start)
	serialRT.Shutdown()
	fmt.Printf("n-queens(%d) = %d solutions (1 worker: %v)\n\n", n, want, serial)

	fmt.Printf("%8s  %12s  %8s  %10s  %10s\n", "workers", "time", "speedup", "spawns", "steals")
	maxP := runtime.GOMAXPROCS(0)
	for p := 1; p <= maxP; p *= 2 {
		rt := cilkgo.New(cilkgo.WithWorkers(p))
		var got int64
		start := time.Now()
		tk, err := rt.Submit(context.Background(), func(c *cilkgo.Context) { got = workloads.NQueens(c, n) })
		if err != nil {
			panic(err)
		}
		if err := tk.Wait(); err != nil {
			panic(err)
		}
		elapsed := time.Since(start)
		s := rt.Stats()
		rt.Shutdown()
		if got != want {
			panic("wrong solution count")
		}
		fmt.Printf("%8d  %12v  %8.2f  %10d  %10d\n",
			p, elapsed, float64(serial)/float64(elapsed), s.Spawns, s.Steals)
	}

	// The irregularity is the point: show the analytic profile of a
	// comparable irregular tree to see how far parallelism exceeds any
	// plausible worker count.
	m := vprog.Analyze(vprog.TreeWalk(200_000, 42, 4, 0, 0))
	fmt.Printf("\nirregular 2e5-node tree walk: parallelism %.0f ≫ any machine here (§3.1)\n", m.Parallelism)
}
