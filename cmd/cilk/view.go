package main

import (
	"flag"
	"fmt"
	"io"
	"slices"

	"cilkgo/internal/cilkmem"
	"cilkgo/internal/cilkview"
	"cilkgo/internal/sim"
	"cilkgo/internal/vprog"
)

// viewCmd prints the parallelism profile of a workload's dag model: work,
// span, parallelism, burdened parallelism and the Fig. 3 speedup series
// (estimated lower bound, simulated speedups, Work Law and Span Law bounds).
func viewCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	var o opts
	o.workloadFlags(fs, "qsort", 100_000_000, 2048)
	o.procsFlag(fs, 1, 2, 4, 8, 16, 32)
	o.burdenFlag(fs)
	o.stealCostFlag(fs, 100)
	simulate := fs.Bool("simulate", false, "run the scheduler simulator to add measured speedups")
	csv := fs.Bool("csv", false, "emit CSV instead of the table")
	plot := fs.Bool("plot", false, "also draw the Fig. 3-style ASCII speedup plot")
	mem := fs.Bool("mem", false, "add the Cilkmem memory high-water section")
	memBytes := fs.Int64("membytes", 1, "bytes charged per frame activation in -mem (1 = count frames)")
	return func(stdout, stderr io.Writer) int {
		w, err := o.lookup()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		prog := w.model(&o)
		profile := cilkview.FromProgram(prog, o.burden)
		var measured []cilkview.Point
		simPeaks := map[int]int64{}
		if *simulate {
			for _, p := range o.procs {
				r, err := sim.Run(prog, sim.Config{Procs: p, StealCost: o.stealCost, Seed: o.seed})
				if err != nil {
					fmt.Fprintf(stderr, "simulate P=%d: %v\n", p, err)
					return 1
				}
				measured = append(measured, cilkview.Point{Procs: p, Speedup: r.Speedup(profile.Work)})
				simPeaks[p] = r.MaxLiveFrames * *memBytes
			}
		}
		if *csv {
			fmt.Fprint(stdout, cilkview.CSV(profile, o.procs, measured))
		} else {
			fmt.Fprint(stdout, cilkview.Render(profile, o.procs, measured))
		}
		if *plot {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, cilkview.Plot(profile, slices.Max(o.procs), measured))
		}
		if *mem {
			fmt.Fprintln(stdout)
			printMem(stdout, prog, o.procs, *memBytes, simPeaks)
		}
		return 0
	}
}

// printMem tabulates the Cilkmem high-water marks: the serial HWM, the
// exact MHWM_p and the streaming (p+1)-approximation per processor count,
// and — when -simulate ran — the simulator's measured live-frame peak,
// which must fall between the serial HWM and the exact bound (a schedule
// cannot beat serial depth-first reuse, nor exceed the adversarial bound).
func printMem(w io.Writer, prog vprog.Program, procs procList, memBytes int64, simPeaks map[int]int64) {
	r := cilkmem.AnalyzeProgram(prog, slices.Max(procs), memBytes)
	unit := "bytes"
	if memBytes == 1 {
		unit = "frames"
	}
	fmt.Fprintf(w, "Memory high-water (Cilkmem, %d bytes/frame):\n", memBytes)
	fmt.Fprintf(w, "  serial HWM: %d %s\n", r.SerialHWM, unit)
	fmt.Fprintf(w, "  %6s %12s %12s", "procs", "exact", "approx")
	if len(simPeaks) > 0 {
		fmt.Fprintf(w, " %12s %6s", "sim peak", "ok")
	}
	fmt.Fprintln(w)
	for _, p := range procs {
		fmt.Fprintf(w, "  %6d %12d %12d", p, r.ExactAt(p), r.ApproxAt(p))
		if len(simPeaks) > 0 {
			peak := simPeaks[p]
			ok := "yes"
			if peak < r.SerialHWM || peak > r.ExactAt(p) {
				ok = "NO"
			}
			fmt.Fprintf(w, " %12d %6s", peak, ok)
		}
		fmt.Fprintln(w)
	}
}
