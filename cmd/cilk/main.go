// Cilk is the platform's analysis tools behind one command, over one
// registry of named workloads (`cilk <command> -h` lists its flags):
//
//	cilk view    Cilkview: work, span, burdened parallelism and the Fig. 3
//	             speedup series of a workload's dag model (§3.1)
//	cilk sim     scheduler-simulator sweep over processor counts (E4–E6, E8)
//	cilk trace   traced run on the real runtime → Chrome trace JSON + report
//	cilk screen  Cilkscreen race detection on an instrumented program (§4)
//
// Reproducing Fig. 3 (quicksort of 10⁸ numbers, span-law ceiling ≈ 10):
//
//	cilk view -workload qsort -n 100000000 -grain 2048 -burden 1000 -procs 1,2,4,8,16,32 -simulate
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"cilkgo/internal/sched"
	"cilkgo/internal/vprog"
	"cilkgo/internal/workloads"
)

// A command declares its flags on fs and returns the function that runs
// it once they are parsed; that function returns the exit status.
var commands = []struct {
	name  string
	setup func(fs *flag.FlagSet) func(stdout, stderr io.Writer) int
}{{"view", viewCmd}, {"sim", simCmd}, {"trace", traceCmd}, {"screen", screenCmd}}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	for _, c := range commands {
		if len(args) == 0 || args[0] != c.name {
			continue
		}
		fs := flag.NewFlagSet("cilk "+c.name, flag.ContinueOnError)
		fs.SetOutput(stderr)
		exec := c.setup(fs)
		if err := fs.Parse(args[1:]); err == flag.ErrHelp {
			return 0
		} else if err != nil {
			return 2
		}
		return exec(stdout, stderr)
	}
	fmt.Fprintln(stderr, "usage: cilk view|sim|trace|screen [flags]")
	return 2
}

// opts holds the flags that mean the same in every command; each command
// declares the ones it uses.
type opts struct {
	workload          string
	n, grain, seed    int64
	burden, stealCost int64
	procs             procList
}

// sizeFlags declares -n and -seed.
func (o *opts) sizeFlags(fs *flag.FlagSet, n int64) {
	fs.Int64Var(&o.n, "n", n, "problem size")
	fs.Int64Var(&o.seed, "seed", 1, "workload and schedule seed")
}

// workloadFlags declares -workload and -grain, plus sizeFlags.
func (o *opts) workloadFlags(fs *flag.FlagSet, workload string, n, grain int64) {
	fs.StringVar(&o.workload, "workload", workload, strings.Join(workloadNames(), " | "))
	fs.Int64Var(&o.grain, "grain", grain, "serial grain size")
	o.sizeFlags(fs, n)
}

func (o *opts) procsFlag(fs *flag.FlagSet, procs ...int) {
	o.procs = procs
	fs.Var(&o.procs, "procs", "processor counts, comma-separated")
}

func (o *opts) burdenFlag(fs *flag.FlagSet) {
	fs.Int64Var(&o.burden, "burden", 1000, "per-spawn scheduling burden (cost units)")
}

func (o *opts) stealCostFlag(fs *flag.FlagSet, cost int64) {
	fs.Int64Var(&o.stealCost, "stealcost", cost, "virtual cost per steal attempt in the simulator")
}

// procList is a comma-separated list of processor counts, each ≥ 1.
type procList []int

func (l *procList) String() string {
	return strings.Trim(strings.ReplaceAll(fmt.Sprint([]int(*l)), " ", ","), "[]")
}

func (l *procList) Set(s string) error {
	*l = nil
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return fmt.Errorf("bad processor count %q", part)
		}
		*l = append(*l, p)
	}
	return nil
}

// workload is one registry entry: the analytic dag model of a named
// workload and, where the real runtime can run it, its parallel body.
type workload struct {
	model func(o *opts) vprog.Program
	body  func(o *opts) func(*sched.Context) // nil: model only
}

var registry = map[string]workload{
	"qsort": {func(o *opts) vprog.Program { return vprog.Qsort(o.n, uint64(o.seed), o.grain) },
		func(o *opts) func(*sched.Context) {
			data := workloads.RandomFloats(int(o.n), o.seed)
			return func(c *sched.Context) { workloads.Qsort(c, data, int(o.grain)) }
		}},
	"fib": {func(o *opts) vprog.Program { return vprog.Fib(int(o.n)) },
		func(o *opts) func(*sched.Context) { return func(c *sched.Context) { workloads.Fib(c, int(o.n)) } }},
	"matmul": {func(o *opts) vprog.Program { return vprog.MatMul(o.n, 8) },
		func(o *opts) func(*sched.Context) {
			a, b, out := workloads.NewMatrix(int(o.n)), workloads.NewMatrix(int(o.n)), workloads.NewMatrix(int(o.n))
			for i := range a.Elts {
				a.Elts[i], b.Elts[i] = float64(i%7)*0.25, float64(i%5)*0.5
			}
			return func(c *sched.Context) { workloads.MatMul(c, a, b, out) }
		}},
	"nqueens": {func(o *opts) vprog.Program { return vprog.NQueens(int(o.n)) },
		func(o *opts) func(*sched.Context) { return func(c *sched.Context) { workloads.NQueens(c, int(o.n)) } }},
	"pfor": {func(o *opts) vprog.Program { return vprog.PFor(o.n, 10, o.grain) },
		func(o *opts) func(*sched.Context) {
			a := make([]float64, o.n)
			return func(c *sched.Context) { workloads.FillSin(c, a) }
		}},
	"bfs":       {model: func(o *opts) vprog.Program { return vprog.BFS(o.n, 8, 24, uint64(o.seed)) }},
	"spmv":      {model: func(o *opts) vprog.Program { return vprog.SpMV(o.n, 5, 100, o.grain) }},
	"loopspawn": {model: func(o *opts) vprog.Program { return vprog.LoopSpawn(o.n, 100) }},
	// treewalk and treewalk-mutex differ only in the lock (§5, E8).
	"treewalk":       {model: func(o *opts) vprog.Program { return vprog.TreeWalk(o.n, uint64(o.seed), 8, 12, 900) }},
	"treewalk-mutex": {model: func(o *opts) vprog.Program { return vprog.TreeWalkLocked(o.n, uint64(o.seed), 8, 12, 900) }},
}

func workloadNames() []string {
	var names []string
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (o *opts) lookup() (workload, error) {
	w, ok := registry[o.workload]
	if !ok {
		return w, fmt.Errorf("unknown workload %q (want %s)", o.workload, strings.Join(workloadNames(), " | "))
	}
	return w, nil
}
