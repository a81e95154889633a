package main

import (
	"encoding/json"
	"os"
	"testing"

	"cilkgo/internal/schedsan"
)

// TestCorpusCoversMenu: the pinned corpus claims its seeds 1–24 cover every
// fault the random-plan menu can produce. Any change to the menu reshuffles
// the plan each seed derives, so the claim is checked here rather than
// trusted: every (point, mode) pair RandomPlan yields over a wide seed range
// must appear in some plan of corpus seeds 1–24.
func TestCorpusCoversMenu(t *testing.T) {
	b, err := os.ReadFile("testdata/corpus.json")
	if err != nil {
		t.Fatal(err)
	}
	var cf corpusFile
	if err := json.Unmarshal(b, &cf); err != nil {
		t.Fatal(err)
	}
	type fault struct {
		p schedsan.Point
		m schedsan.Mode
	}
	covered := map[fault]bool{}
	for _, s := range cf.Seeds {
		if s < 1 || s > 24 {
			continue
		}
		for _, r := range schedsan.RandomPlan(s).Rules {
			covered[fault{r.Point, r.Mode}] = true
		}
	}
	// RandomPlan draws each plan's rules uniformly from the menu, so 5000
	// seeds reach every entry with overwhelming probability — and the draw
	// is deterministic, so a missed entry would be missed every run.
	producible := map[fault]bool{}
	for s := int64(1); s <= 5000; s++ {
		for _, r := range schedsan.RandomPlan(s).Rules {
			producible[fault{r.Point, r.Mode}] = true
		}
	}
	for f := range producible {
		if !covered[f] {
			t.Errorf("corpus seeds 1–24 never inject %s/%s", f.p, f.m)
		}
	}
	t.Logf("corpus seeds 1–24 cover %d/%d menu faults", len(covered), len(producible))
}
