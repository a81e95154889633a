// Cilkbench is the repository's one benchmark. It runs six named workloads
// — four compute programs and two serving loops — and reports, for each, the
// platform's cost as a ratio to the serial elision of the same program timed
// moments earlier in the same process, so that what a shared host steals
// cancels out: t1_x (one worker ÷ serial, the paper's work overhead), tp_x
// (nproc workers ÷ serial), goodput_x (serial-seconds of correct replies
// delivered per second) and setup_s. Every output is checked against the
// serial elision's. A separate traced run (-trace 1) measures the per-layer
// cost ladder and records benchmark-side spans. See README.md.
//
//	go run -C cmd/cilkbench .                       # all six workloads
//	go run -C cmd/cilkbench . -trace 1              # plus the per-layer run
//	go run -C cmd/cilkbench . -workload fib -seed 7
//	go run -C cmd/cilkbench . -selfcheck            # two sets must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

var stderr io.Writer = os.Stderr

func main() {
	fs := flag.NewFlagSet("cilkbench", flag.ExitOnError)
	workload := fs.String("workload", "all", "workload to run: one of the six names, or all")
	seed := fs.Int64("seed", defaultSeed, "seed for matrix contents, loop data, and the request-kind/tenant/path schedules")
	seconds := fs.Float64("seconds", 12, "how long one run measures")
	trace := fs.Int("trace", 0, "1: run the separate traced run (per-layer metrics, spans, cilkbench_trace.json)")
	selfcheck := fs.Bool("selfcheck", false, "run two sets of the same code and fail if a gated metric disagrees beyond its bound")
	smoke := fs.Bool("smoke", false, "tiny sizes: exercise every workload and the oracle in a few seconds")
	moddir := fs.String("moddir", ".", "this benchmark's module directory (where examples/serve is built from)")
	outdir := fs.String("outdir", ".", "where cilkbench_result.json, cilkbench_trace.json and the serve binary go")
	fs.Parse(os.Args[1:])

	code, err := run(options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		selfcheck: *selfcheck, smoke: *smoke, moddir: *moddir, outdir: *outdir,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cilkbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

type options struct {
	workload       string
	seed           int64
	seconds        float64
	trace          bool
	selfcheck      bool
	smoke          bool
	moddir, outdir string
}

// resultFile is what cilkbench_result.json holds: every report of the
// invocation and the diagnostics derived across workloads.
type resultFile struct {
	Procs   int               `json:"procs"`
	Seed    int64             `json:"seed"`
	Reports []*report         `json:"reports"`
	Derived map[string]metric `json:"derived,omitempty"`
}

// run executes one invocation and returns the process's exit code: 0 when
// every output matched its oracle (and, under -selfcheck, the two sets
// agreed), 1 otherwise.
func run(o options, out io.Writer) (int, error) {
	names, err := selectWorkloads(o.workload)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(o.outdir, 0o755); err != nil {
		return 0, err
	}
	cfg := config{
		env:     env{sz: fullSizes, procs: runtime.GOMAXPROCS(0), trace: o.trace},
		seed:    o.seed,
		seconds: o.seconds,
		smoke:   o.smoke,
		outdir:  o.outdir,
		out:     out,
	}
	if o.smoke {
		cfg.sz, cfg.seconds = smokeSizes, 0
	}
	if o.trace || slices.Contains(names, "serve_http") {
		if cfg.serveBin, err = buildServe(o.moddir, o.outdir); err != nil {
			return 0, err
		}
	}
	if o.selfcheck {
		return selfCheck(cfg, names)
	}

	res := resultFile{Procs: cfg.procs, Seed: cfg.seed}
	for _, name := range names {
		// Driven one workload at a time, -trace 1 is the traced run alone:
		// the driver reads either the end-to-end or the per-layer metrics.
		if !o.trace || len(names) > 1 {
			r, err := runWorkload(cfg, name)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			res.Reports = append(res.Reports, r)
		}
		if o.trace {
			r, err := runTraced(cfg, name)
			if err != nil {
				return 0, fmt.Errorf("%s (traced): %w", name, err)
			}
			res.Reports = append(res.Reports, r)
		}
	}
	res.Derived = derive(res.Reports)
	for _, k := range sortedKeys(res.Derived) {
		fmt.Fprintf(out, "(derived) %-28s %12.5g %s\n", k, res.Derived[k].Value, res.Derived[k].Unit)
	}
	path := filepath.Join(o.outdir, "cilkbench_result.json")
	if err := writeJSON(path, res); err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "wrote %s\n", path)

	line := summaryLine(res.Reports)
	b, err := json.Marshal(line)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(out, "%s\n", b)
	if !line.Correct {
		return 1, nil
	}
	return 0, nil
}

func selectWorkloads(arg string) ([]string, error) {
	var all []string
	for _, w := range workloadSpecs {
		all = append(all, w.Name)
	}
	if arg == "all" {
		return all, nil
	}
	if !slices.Contains(all, arg) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", arg, all)
	}
	return []string{arg}, nil
}

// summaryLine is the last line of standard output. For one workload it is
// exactly the driver's result object; for several, the same object with each
// end-to-end metric named workload/metric (the traced runs' metrics are in
// cilkbench_result.json).
func summaryLine(reports []*report) driverLine {
	if len(reports) == 1 {
		return reports[0].driverLine()
	}
	line := driverLine{Correct: true, Metrics: map[string]metric{}}
	for _, r := range reports {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		if r.Traced {
			continue
		}
		for k, m := range r.Metrics {
			line.Metrics[r.Workload+"/"+k] = m
		}
	}
	return line
}

// derive computes the cross-workload diagnostics. None is gated: a slower
// T_1 must not read as a better speedup, and observer_cost_x compares two
// separate runs.
func derive(reports []*report) map[string]metric {
	tp := map[string]float64{}
	for _, r := range reports {
		if !r.Traced {
			tp[r.Workload] = r.Metrics["tp_x"].Value
		}
	}
	d := map[string]metric{}
	if a, b := tp["fib_observed"], tp["fib"]; a > 0 && b > 0 {
		d["observer_cost_x"] = metric{a / b, "x"}
	}
	return d
}

// selfCheck runs every selected workload twice, set after set, and compares
// the gated metrics of the two sets of the same code against their bounds.
func selfCheck(cfg config, names []string) (int, error) {
	var sets [2]map[string]*report
	for s := range sets {
		sets[s] = map[string]*report{}
		for _, name := range names {
			r, err := runWorkload(cfg, name)
			if err != nil {
				return 0, fmt.Errorf("set %d: %s: %w", s+1, name, err)
			}
			sets[s][name] = r
		}
	}
	code := 0
	fmt.Fprintf(cfg.out, "\nselfcheck seed=%d: set 1 vs set 2 of the same code\n", cfg.seed)
	fmt.Fprintf(cfg.out, "%-14s %-10s %12s %12s %8s %7s  %s\n", "workload", "metric", "set1", "set2", "differ", "bound", "steal1/steal2")
	for _, name := range names {
		a, b := sets[0][name], sets[1][name]
		if !a.Correct || !b.Correct {
			code = 1
		}
		for _, m := range endToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			differ := math.Abs(vb-va) / va
			verdict := ""
			if differ > m.Bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Fprintf(cfg.out, "%-14s %-10s %12.5g %12.5g %7.1f%% %6.0f%%  %.2f/%.2f%s\n",
				name, m.Name, va, vb, 100*differ, 100*m.Bound,
				a.Diagnostics["host_steal_share"].Value, b.Diagnostics["host_steal_share"].Value, verdict)
		}
	}
	return code, nil
}
