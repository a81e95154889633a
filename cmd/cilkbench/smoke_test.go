package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// lastLine decodes the result object on the last line of the output,
// refusing keys the driver does not know.
func lastLine(t *testing.T, out string) driverLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var l driverLine
	if err := dec.Decode(&l); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return l
}

func smokeRun(t *testing.T, o options) (string, int) {
	t.Helper()
	o.smoke, o.moddir, o.seed = true, ".", defaultSeed
	if o.outdir == "" {
		o.outdir = t.TempDir()
	}
	var buf bytes.Buffer
	code, err := run(o, &buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf.String(), code
}

func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	var g, w []string
	for k := range got {
		g = append(g, k)
	}
	for _, m := range want {
		w = append(w, m.Name)
		if got[m.Name].Unit != m.Unit {
			t.Errorf("%s: unit %q, want %q", m.Name, got[m.Name].Unit, m.Unit)
		}
	}
	sort.Strings(g)
	sort.Strings(w)
	if strings.Join(g, " ") != strings.Join(w, " ") {
		t.Errorf("metrics\n got  %v\n want %v", g, w)
	}
}

// The golden output schema, as the driver reads it: one workload, untraced,
// yields exactly the end-to-end metrics; traced, exactly the per-layer ones.
func TestDriverLineSchema(t *testing.T) {
	out, code := smokeRun(t, options{workload: "loop_steps"})
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	l := lastLine(t, out)
	if !l.Correct || l.Attempted < 1 || l.Failed != 0 {
		t.Errorf("result %+v", l)
	}
	checkMetrics(t, l.Metrics, endToEnd)
	for _, m := range endToEnd {
		if !(l.Metrics[m.Name].Value > 0) {
			t.Errorf("%s = %g: end-to-end metrics are never 0", m.Name, l.Metrics[m.Name].Value)
		}
	}

	dir := t.TempDir()
	out, code = smokeRun(t, options{workload: "submit_mix", trace: true, outdir: dir})
	if code != 0 {
		t.Fatalf("traced: exit %d\n%s", code, out)
	}
	var layers []metricSpec
	for _, s := range perLayer {
		layers = append(layers, s.metricSpec)
	}
	checkMetrics(t, lastLine(t, out).Metrics, layers)

	var tf traceFile
	b, err := os.ReadFile(filepath.Join(dir, "cilkbench_trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"submit", "queue", "run"} {
		if tf.Layers[name].Count == 0 {
			t.Errorf("trace has no %q spans", name)
		}
	}
	for _, s := range tf.Spans {
		if s.Req == 0 || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
	}
}

// Smoke keeps the whole harness building and running: all six workloads,
// the oracle on every reply, the server subprocess, and the result file.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	out, code := smokeRun(t, options{workload: "all", outdir: dir})
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	b, err := os.ReadFile(filepath.Join(dir, "cilkbench_result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res resultFile
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != len(workloadSpecs) {
		t.Fatalf("%d reports, want %d", len(res.Reports), len(workloadSpecs))
	}
	for i, r := range res.Reports {
		if r.Workload != workloadSpecs[i].Name {
			t.Errorf("report %d is %s, want %s", i, r.Workload, workloadSpecs[i].Name)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < minBlocks {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", r.Workload, r.Correct, r.Attempted, r.Failed)
		}
		checkMetrics(t, r.Metrics, endToEnd)
		for _, d := range []string{"fail_share", "host_steal_share", "speedup", "efficiency", "p50_x"} {
			if _, ok := r.Diagnostics[d]; !ok {
				t.Errorf("%s: no %s diagnostic", r.Workload, d)
			}
		}
		if !strings.Contains(out, "== "+r.Workload+" ") {
			t.Errorf("%s missing from the printed report", r.Workload)
		}
	}
	if _, ok := res.Derived["observer_cost_x"]; !ok {
		t.Error("no derived observer_cost_x")
	}
}

// A reply that differs from the serial elision's must fail the run.
func TestOracleCatchesAWrongResult(t *testing.T) {
	old := stderr
	stderr = &bytes.Buffer{}
	defer func() { stderr = old; failures.Store(0) }()

	p := fibPlan(env{sz: smokeSizes, procs: 2}, false)
	in, warm, err := setUp(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	if warm.failed != 0 {
		t.Fatalf("warm-up failed %d of %d", warm.failed, warm.attempted)
	}
	in.kinds[0].want++ // now every reply is "wrong"
	b := in.block(nil)
	if b.failed != b.attempted || b.attempted < 3 {
		t.Errorf("attempted %d, failed %d: every operation should have failed", b.attempted, b.failed)
	}
	r := newReport(config{}, "fib", false, b.tally)
	if r.Correct {
		t.Error("report says correct")
	}
}
