// Benchjson diffs a cmd/cilkload JSON report on stdin against a committed
// baseline report and writes the annotated report to stdout (`make
// bench-serve` pipes into it to produce BENCH_serve.json):
//
//	go run ./cmd/cilkload ... | go run ./cmd/benchjson -serve -baseline bench_serve_baseline.json
//
// The flat latency series ("tenant@xN" → p50/p95/p99) are matched by name
// against -baseline (a previous cilkload/benchjson output); each matched
// series gains baseline_p99_ns and p99_delta_pct, and the exit status is 1
// when any series' p99 regressed by more than -maxp99 percent (default 10).
// A missing baseline file passes the report through unchanged, so the first
// run can mint the committed baseline.
//
// Throughput and overhead numbers come from cmd/cilkbench, not from here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// serveSeries is one latency series of a cilkload report (see
// cmd/cilkload's series type — field-compatible by construction).
type serveSeries struct {
	Name        string  `json:"name"`
	P50         int64   `json:"p50_ns"`
	P95         int64   `json:"p95_ns"`
	P99         int64   `json:"p99_ns"`
	BaselineP99 int64   `json:"baseline_p99_ns,omitempty"`
	P99DeltaPct float64 `json:"p99_delta_pct,omitempty"`
}

// serveReport mirrors cmd/cilkload's output shape: the series are parsed for
// diffing, everything else round-trips untouched.
type serveReport struct {
	URL     string          `json:"url"`
	Path    string          `json:"path"`
	Sweep   []float64       `json:"sweep"`
	StepDur string          `json:"step_dur"`
	Steps   json.RawMessage `json:"steps"`
	Series  []serveSeries   `json:"series"`
	Degrade json.RawMessage `json:"degrade,omitempty"`
}

// serveMain diffs a cilkload report's latency percentiles against a baseline
// report by series name, failing on p99 regressions past maxP99Pct. Returns
// the exit status.
func serveMain(baselinePath string, maxP99Pct float64) int {
	var rep serveReport
	if err := json.NewDecoder(os.Stdin).Decode(&rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: bad cilkload report:", err)
		return 2
	}
	baseline := map[string]int64{}
	if baselinePath != "" {
		f, err := os.Open(baselinePath)
		if err != nil {
			// First run: no baseline committed yet; emit the report as-is so
			// it can become the baseline.
			fmt.Fprintf(os.Stderr, "benchjson: no baseline (%v); passing report through\n", err)
		} else {
			var prev serveReport
			err := json.NewDecoder(f).Decode(&prev)
			f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: bad baseline:", err)
				return 2
			}
			for _, s := range prev.Series {
				baseline[s.Name] = s.P99
			}
		}
	}
	exit := 0
	for i := range rep.Series {
		s := &rep.Series[i]
		base, ok := baseline[s.Name]
		if !ok || base <= 0 {
			continue
		}
		s.BaselineP99 = base
		s.P99DeltaPct = 100 * float64(s.P99-base) / float64(base)
		if s.P99DeltaPct > maxP99Pct {
			fmt.Fprintf(os.Stderr, "benchjson: FAIL %s p99 %.3fms vs baseline %.3fms (%+.1f%% > %.0f%% budget)\n",
				s.Name, float64(s.P99)/1e6, float64(base)/1e6, s.P99DeltaPct, maxP99Pct)
			exit = 1
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	return exit
}

func main() {
	baselinePath := flag.String("baseline", "", "previous report to diff against")
	flag.Bool("serve", true, "accepted and ignored: a cilkload report is the only input format")
	maxP99 := flag.Float64("maxp99", 10, "fail when a series' p99 regressed by more than this percent vs. the baseline")
	flag.Parse()
	os.Exit(serveMain(*baselinePath, *maxP99))
}
