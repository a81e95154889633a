package main

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	env
	seed    int64
	seconds float64 // how long one run measures
	smoke   bool    // tiny sizes, one set-up, minBlocks blocks
	outdir  string
	out     io.Writer // the human-readable report
}

// minBlocks is the fewest blocks a run reports a median over, however short
// -seconds is.
const minBlocks = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run of one workload: what the last line of standard output
// carries for the driver, plus the ungated diagnostics.
type report struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Traced      bool              `json:"traced"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Diagnostics map[string]metric `json:"diagnostics"`
	Timings     map[string]timing `json:"timings"`
	Blocks      []blockSample     `json:"blocks,omitempty"`
}

// driverLine is the result object the driver reads.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) driverLine() driverLine {
	return driverLine{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// Set-up is repeated at least minSetups times and until setupBudget has been
// spent (but at most maxSetups times), so that setup_s is a median over
// enough samples to be steady even where one set-up takes milliseconds.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = time.Second
)

// setUpRepeatedly sets the workload up several times, tearing down all but
// the last, and returns the live instance with every set-up's duration:
// input generation, platform start and warm-up, up to the first timed block.
// once asks for a single set-up.
func setUpRepeatedly(cfg config, name string, once bool) (*instance, []float64, tally, error) {
	build := builders[name]
	var times []float64
	var warm tally
	started := time.Now()
	for {
		t0 := time.Now()
		// The same seed every time: every set-up generates the same inputs.
		p, err := build(cfg.env, rand.New(rand.NewSource(cfg.seed)))
		if err != nil {
			return nil, nil, warm, err
		}
		in, t, err := setUp(p, cfg.procs)
		if err != nil {
			return nil, nil, warm, err
		}
		warm.add(t)
		times = append(times, time.Since(t0).Seconds())
		n := len(times)
		if once || n >= maxSetups || (n >= minSetups && time.Since(started) >= setupBudget) {
			return in, times, warm, nil
		}
		if err := in.close(); err != nil {
			return nil, nil, warm, err
		}
	}
}

func column(bs []blockSample, f func(blockSample) float64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = f(b)
	}
	return out
}

// runWorkload measures one workload untraced and reports the end-to-end
// metrics.
func runWorkload(cfg config, name string) (*report, error) {
	steal := startStealMeter()
	in, setups, total, err := setUpRepeatedly(cfg, name, cfg.smoke)
	if err != nil {
		return nil, err
	}
	defer in.close()

	var raw []block
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(raw) < minBlocks || time.Now().Before(deadline) {
		b := in.block(nil)
		total.add(b.tally)
		raw = append(raw, b)
	}
	blocks := reduce(raw)

	r := newReport(cfg, name, false, total)
	r.Blocks = blocks
	t1x := column(blocks, func(b blockSample) float64 { return b.T1x })
	tpx := column(blocks, func(b blockSample) float64 { return b.TPx })
	good := column(blocks, func(b blockSample) float64 { return b.Goodput })
	r.Metrics["t1_x"] = metric{median(t1x), "x"}
	r.Metrics["tp_x"] = metric{median(tpx), "x"}
	r.Metrics["goodput_x"] = metric{median(good), "cores"}
	r.Metrics["setup_s"] = metric{median(setups), "s"}
	r.Timings["t1_x"] = summarize(t1x)
	r.Timings["tp_x"] = summarize(tpx)
	r.Timings["goodput_x"] = summarize(good)
	r.Timings["setup_s"] = summarize(setups)
	r.Timings["one_ms"] = summarize(column(blocks, func(b blockSample) float64 { return b.OneMS }))
	r.Timings["par_ms"] = summarize(column(blocks, func(b blockSample) float64 { return b.ParMS }))
	r.Timings["rps"] = summarize(column(blocks, func(b blockSample) float64 { return b.RPS }))

	// Every request's stretch on the nproc arm, pooled: the issue's p50_x
	// and, where enough requests were served, the tail (p95_x or whichever
	// percentile still has ten samples beyond it). Ungated: a tail over a
	// few thousand requests on a shared host does not settle within 10%.
	var pooled []float64
	for _, b := range blocks {
		pooled = append(pooled, b.stretches...)
	}
	st := summarize(pooled)
	r.Timings["stretch_x"] = st
	r.Diagnostics["p50_x"] = metric{st.Median, "x"}
	if st.Pct != 0 {
		r.Diagnostics[fmt.Sprintf("p%g_x", st.Pct)] = metric{st.Tail, "x"}
	}
	t1, tp := r.Metrics["t1_x"].Value, r.Metrics["tp_x"].Value
	r.Diagnostics["speedup"] = metric{t1 / tp, "x"}
	r.Diagnostics["efficiency"] = metric{t1 / tp / float64(cfg.procs), "ratio"}
	r.Diagnostics["fail_share"] = metric{float64(r.Failed) / float64(r.Attempted), "ratio"}
	r.Diagnostics["host_steal_share"] = metric{steal.share(), "ratio"}
	r.Diagnostics["blocks"] = metric{float64(len(blocks)), "count"}
	r.print(cfg.out)
	return r, nil
}

func newReport(cfg config, name string, traced bool, t tally) *report {
	return &report{
		Workload: name, Seed: cfg.seed, Traced: traced,
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics:     map[string]metric{},
		Diagnostics: map[string]metric{},
		Timings:     map[string]timing{},
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// print writes the report for people: every metric by name with its unit,
// then the diagnostics, then each timing as median, tail and sample count.
func (r *report) print(w io.Writer) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "   attempted=%d ok=%d failed=%d\n", r.Attempted, r.Attempted-r.Failed, r.Failed)
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(w, "   %-30s %12.5g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.Diagnostics) {
		m := r.Diagnostics[k]
		fmt.Fprintf(w, "   (diag) %-23s %12.5g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(r.Timings) {
		fmt.Fprintf(w, "   (timing) %-21s %s\n", k, r.Timings[k])
	}
}

// runTraced is the separate traced run: the cost ladder of per-layer
// microbenchmarks, then the workload with benchmark-side spans and per-run
// accounting on, alternating traced and untraced blocks so their ratio is
// the tracing overhead.
func runTraced(cfg config, name string) (*report, error) {
	steal := startStealMeter()
	started := time.Now()
	lad, err := runLadder(cfg)
	if err != nil {
		return nil, err
	}

	in, _, total, err := setUpRepeatedly(cfg, name, true)
	if err != nil {
		return nil, err
	}
	defer in.close()

	rec := newRecorder()
	var raw []block
	var tracedReqs int
	counts := map[string]int64{}
	deadline := started.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(raw) < 2*minBlocks || time.Now().Before(deadline) {
		before, err := in.par.counters()
		if err != nil {
			return nil, err
		}
		b := in.block(rec)
		after, err := in.par.counters()
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			counts[k] += v - before[k]
		}
		tracedReqs += len(b.par.replies)
		total.add(b.tally)
		raw = append(raw, b)

		b = in.block(nil)
		total.add(b.tally)
		raw = append(raw, b)
	}
	var traced, plain []blockSample
	for _, b := range reduce(raw) {
		if b.Traced {
			traced = append(traced, b)
		} else {
			plain = append(plain, b)
		}
	}

	r := newReport(cfg, name, true, total)
	for k, v := range lad.metrics {
		r.Metrics[k] = v
	}
	// Scheduler counters per request on the nproc arm (for a compute
	// workload, per whole problem).
	perReq := func(key string) float64 { return float64(counts[key]) / float64(tracedReqs) }
	for _, key := range []string{"spawns", "pool_refills", "steals", "steal_attempts",
		"failed_sweeps", "chunks_peeled", "loop_splits", "range_steals"} {
		r.Metrics[key] = metric{perReq(key), "count"}
	}
	hit := 0.0
	if counts["steal_attempts"] > 0 {
		hit = float64(counts["steals"]) / float64(counts["steal_attempts"])
	}
	r.Metrics["steal_hit_ratio"] = metric{hit, "ratio"}
	tpx := func(bs []blockSample) float64 {
		return median(column(bs, func(b blockSample) float64 { return b.TPx }))
	}
	r.Metrics["trace_overhead_x"] = metric{tpx(traced) / tpx(plain), "x"}

	for k, v := range lad.diagnostics {
		r.Diagnostics[k] = v
	}
	oneMS := median(column(plain, func(b blockSample) float64 { return b.OneMS }))
	if counts["spawns"] > 0 {
		// The first check that the layer numbers add up to the end-to-end
		// one: where a workload spawns, T_1 should be about spawns × the
		// cost of one spawn+sync.
		pred := perReq("spawns") * r.Metrics["sched.spawn_sync_ns"].Value / 1e6
		r.Diagnostics["t1_predicted_ms"] = metric{pred, "ms"}
		r.Diagnostics["t1_measured_ms"] = metric{oneMS, "ms"}
		r.Diagnostics["t1_predicted_share"] = metric{pred / oneMS, "ratio"}
	}
	r.Diagnostics["host_steal_share"] = metric{steal.share(), "ratio"}
	r.Diagnostics["traced_requests"] = metric{float64(tracedReqs), "count"}
	r.print(cfg.out)

	layers := account(rec.spans)
	fmt.Fprintf(cfg.out, "   spans (us): %-32s %8s  %-28s %-28s %s\n", "name", "count", "total", "self", "self share")
	for _, k := range sortedKeys(layers) {
		l := layers[k]
		fmt.Fprintf(cfg.out, "               %-32s %8d  %-28s %-28s %.3f\n", k, l.Count, l.TotalUS, l.SelfUS, l.Share)
	}
	path := filepath.Join(cfg.outdir, "cilkbench_trace.json")
	if err := writeJSON(path, traceFile{Workload: name, Seed: cfg.seed, Layers: layers, Spans: rec.spans}); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "   wrote %s (%d spans)\n", path, len(rec.spans))
	return r, nil
}
