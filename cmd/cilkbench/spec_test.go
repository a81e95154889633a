package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json; unknown keys are an error.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.\-]{1,16}$`)
)

// BENCHMARK.json must say what spec.go says, in the driver's format.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	f, err := os.Open("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %+v\n spec %+v", b.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n spec %+v", b.EndToEnd, endToEnd)
	}
	var layers []metricSpec
	for _, l := range perLayer {
		layers = append(layers, l.metricSpec)
	}
	if !reflect.DeepEqual(b.PerLayer, layers) {
		t.Errorf("per_layer differs:\n json %+v\n spec %+v", b.PerLayer, layers)
	}
	if !reflect.DeepEqual(b.Paths, []string{"cmd/cilkbench"}) {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
}

func TestSpecObeysTheDriversRules(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len([]rune(w.Why)) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len([]rune(w.Why)))
		}
		if builders[w.Name] == nil {
			t.Errorf("%s: no builder", w.Name)
		}
	}
	var setup bool
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		} else if m.Bound > 0.15 {
			t.Errorf("%s: a metric that needs a bound above 15%% belongs in the diagnostics", m.Name)
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, l := range perLayer {
		name(l.Name)
		if !unitRE.MatchString(l.Unit) {
			t.Errorf("%s: bad unit %q", l.Name, l.Unit)
		}
		if l.Better != "lower" && l.Better != "higher" {
			t.Errorf("%s: better = %q", l.Name, l.Better)
		}
		if l.Bound != 0 {
			t.Errorf("%s: per-layer metrics have no bound", l.Name)
		}
		if l.Layer == "" || l.Moves == "" || l.NotMoving == "" {
			t.Errorf("%s: the prediction is part of the spec", l.Name)
		}
	}
}
