// Quickstart reproduces the paper's Fig. 1 program: fill an array with a
// cilk_for loop, sort it with the spawn/sync parallel quicksort, and print
// the result — the complete three-keyword tour of the platform.
package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"cilkgo"
	"cilkgo/internal/workloads"
)

func main() {
	rt := cilkgo.New()
	defer rt.Shutdown()

	const n = 100 // as in Fig. 1's main routine
	a := make([]float64, n)

	tk, err := rt.Submit(context.Background(), func(ctx *cilkgo.Context) {
		// cilk_for (int i=0; i<n; ++i) a[i] = sin((double) i);
		cilkgo.For(ctx, 0, n, func(_ *cilkgo.Context, i int) {
			a[i] = math.Sin(float64(i))
		})
		// qsort(a, a + n);
		workloads.Qsort(ctx, a, 8)
	})
	if err != nil {
		panic(err)
	}
	if err := tk.Wait(); err != nil {
		panic(err)
	}

	if !sort.Float64sAreSorted(a) {
		panic("output is not sorted")
	}
	for _, v := range a {
		fmt.Println(v)
	}

	s := rt.Stats()
	fmt.Printf("\n# workers=%d spawns=%d steals=%d\n", rt.Workers(), s.Spawns, s.Steals)
}
