package main

import (
	"flag"
	"fmt"
	"io"

	"cilkgo/internal/sim"
	"cilkgo/internal/vprog"
)

// simCmd sweeps the work-stealing scheduler simulator over processor
// counts and prints T_P, speedup, utilization, steal counts, stack
// occupancy and lock waits — the machinery behind E4–E6 and E8 (DESIGN.md).
func simCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	var o opts
	o.workloadFlags(fs, "fib", 25, 64)
	o.procsFlag(fs, 1, 2, 4, 8, 16)
	o.stealCostFlag(fs, 1)
	spawnCost := fs.Int64("spawncost", 0, "virtual overhead per spawn")
	handoff := fs.Int64("handoff", 0, "lock migration penalty for Critical sections")
	return func(stdout, stderr io.Writer) int {
		w, err := o.lookup()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		prog := w.model(&o)
		m := vprog.Analyze(prog)
		fmt.Fprintf(stdout, "%s: work=%d span=%d parallelism=%.2f spawns=%d depth=%d\n\n",
			prog.Name, m.Work, m.Span, m.Parallelism, m.Spawns, m.MaxDepth)
		fmt.Fprintf(stdout, "%5s %14s %9s %6s %12s %12s %9s %10s\n",
			"P", "T_P", "speedup", "util", "steals", "attempts", "max-live", "lock-wait")
		for _, p := range o.procs {
			r, err := sim.Run(prog, sim.Config{Procs: p, StealCost: o.stealCost, SpawnCost: *spawnCost,
				LockHandoff: *handoff, Seed: o.seed})
			if err != nil {
				fmt.Fprintf(stderr, "P=%d: %v\n", p, err)
				return 1
			}
			fmt.Fprintf(stdout, "%5d %14d %9.2f %6.2f %12d %12d %9d %10d\n",
				p, r.Time, r.Speedup(m.Work), r.Utilization(),
				r.Steals, r.StealAttempts, r.MaxLiveFrames, r.LockWait)
		}
		return 0
	}
}
