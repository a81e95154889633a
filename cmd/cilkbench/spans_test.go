package main

import "testing"

func TestSelfTimeIsSpanMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		// Two children that overlap each other: they cover [10,60).
		{ID: 2, Parent: 1, Name: "submit", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "queue", Start: 30, End: 60},
		// A child that sticks out of its parent: only [90,100) counts.
		{ID: 4, Parent: 1, Name: "run", Start: 90, End: 120},
		// A grandchild takes from its own parent only.
		{ID: 5, Parent: 4, Name: "inner", Start: 95, End: 105},
		// A child wholly outside its parent covers nothing.
		{ID: 6, Parent: 1, Name: "late", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{
		1: 100 - 50 - 10, // [10,60) and [90,100) covered
		2: 30,
		3: 30,
		4: 30 - 10,
		5: 10,
		6: 10,
	} {
		if self[id] != want {
			t.Errorf("span %d: self %d, want %d", id, self[id], want)
		}
	}
}

func TestAccountGroupsByName(t *testing.T) {
	r := newRecorder()
	t0 := r.epoch
	at := func(us int) (tm int64) { return int64(us) * 1000 }
	for req := int64(1); req <= 2; req++ {
		r.request(req, 2, "request", t0, t0.Add(100_000),
			span{Name: "run", Start: at(20), End: at(80)})
	}
	if len(r.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(r.spans))
	}
	for _, s := range r.spans {
		if s.Name == "run" && (s.Parent == 0 || s.Req == 0) {
			t.Errorf("child span lacks parent or request id: %+v", s)
		}
	}
	acct := account(r.spans)
	if got := acct["request"]; got.Count != 2 || got.TotalUS.Median != 100 || got.SelfUS.Median != 40 {
		t.Errorf("request: %+v", got)
	}
	if got := acct["run"]; got.Count != 2 || got.SelfUS.Median != 60 || got.Share != 0.6 {
		t.Errorf("run: %+v", got)
	}
}
