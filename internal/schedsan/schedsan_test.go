package schedsan

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestRandomPlanDeterministic: the same seed must derive the same plan —
// that is what makes a failing seed a reproducible test case.
func TestRandomPlanDeterministic(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		a, b := RandomPlan(seed), RandomPlan(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: RandomPlan not deterministic:\n%v\n%v", seed, a, b)
		}
		if len(a.Rules) == 0 || len(a.Rules) > 5 {
			t.Fatalf("seed %d: %d rules, want 1..5", seed, len(a.Rules))
		}
		for _, r := range a.Rules {
			if r.Point == PointInjectWake {
				t.Fatalf("seed %d: random plan contains the liveness-breaking inject-wake point", seed)
			}
			if r.Delay > time.Millisecond {
				t.Fatalf("seed %d: unbounded delay %v", seed, r.Delay)
			}
		}
	}
}

// TestLaneDeterministic: a lane's decision sequence is a pure function of
// (seed, worker id) — two lanes built from equal injectors must agree
// call-for-call.
func TestLaneDeterministic(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{
		{Point: PointSteal, Mode: ModeFail, Rate: 0.5},
		{Point: PointWake, Mode: ModeDrop, Every: 3},
	}}
	l1 := NewInjector(plan).Lane(2)
	l2 := NewInjector(plan).Lane(2)
	for i := 0; i < 1000; i++ {
		if l1.Fail(PointSteal) != l2.Fail(PointSteal) {
			t.Fatalf("call %d: lanes disagree on Fail", i)
		}
		if l1.Drop(PointWake) != l2.Drop(PointWake) {
			t.Fatalf("call %d: lanes disagree on Drop", i)
		}
	}
}

// TestEveryRule: an Every-based rule fires on exactly every Nth opportunity.
func TestEveryRule(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{{Point: PointWake, Mode: ModeDrop, Every: 4}}})
	l := in.Lane(0)
	fired := 0
	for i := 1; i <= 40; i++ {
		if l.Drop(PointWake) {
			fired++
			if i%4 != 0 {
				t.Fatalf("every=4 rule fired at opportunity %d", i)
			}
		}
	}
	if fired != 10 {
		t.Fatalf("every=4 rule fired %d/40 times, want 10", fired)
	}
	if got := in.TotalFired(); got != 10 {
		t.Fatalf("TotalFired = %d, want 10", got)
	}
}

// TestNilLane: every Lane method must be a no-op on nil — the scheduler
// holds nil lanes when the sanitizer is off.
func TestNilLane(t *testing.T) {
	var l *Lane
	if l.Fail(PointSteal) || l.Drop(PointWake) || l.Dup(PointWake) {
		t.Fatal("nil lane reported a fault")
	}
	l.Delay(PointPark) // must not panic
}

// TestPlanJSONRoundTrip: plans survive the JSON encoding used by the fuzz
// corpus and the shrunken fault scripts.
func TestPlanJSONRoundTrip(t *testing.T) {
	p := RandomPlan(7)
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var got Plan
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n%v\n%v", p, got)
	}
}

// TestShrinkMinimizes: shrinking a plan whose failure depends on exactly
// one rule must isolate that rule.
func TestShrinkMinimizes(t *testing.T) {
	p := Plan{Seed: 9, Rules: []Rule{
		{Point: PointSteal, Mode: ModeFail, Rate: 0.3},
		{Point: PointWake, Mode: ModeDrop, Rate: 0.8},
		{Point: PointRecycle, Mode: ModeFail, Rate: 0.4},
		{Point: PointPark, Mode: ModeDelay, Rate: 0.5, Delay: 40 * time.Microsecond},
	}}
	calls := 0
	fails := func(c Plan) bool {
		calls++
		for _, r := range c.Rules {
			// The "bug" reproduces whenever the wake-drop rule is present
			// with rate ≥ 0.2.
			if r.Point == PointWake && r.Mode == ModeDrop && r.Rate >= 0.2 {
				return true
			}
		}
		return false
	}
	min := Shrink(p, fails)
	if len(min.Rules) != 1 || min.Rules[0].Point != PointWake || min.Rules[0].Mode != ModeDrop {
		t.Fatalf("shrink kept %v, want only the wake/drop rule", min.Rules)
	}
	if min.Rules[0].Rate >= 0.4 {
		t.Fatalf("shrink did not attenuate the rate: %v", min.Rules[0])
	}
	if calls == 0 {
		t.Fatal("predicate never invoked")
	}
}

// TestShrinkKeepsFailingPlan: the shrunk plan itself must satisfy the
// failure predicate. It starts from the first random plan at or after seed
// 11 with at least three rules, so there is something to shrink.
func TestShrinkKeepsFailingPlan(t *testing.T) {
	p := RandomPlan(11)
	for s := int64(12); len(p.Rules) < 3; s++ {
		p = RandomPlan(s)
	}
	fails := func(c Plan) bool { return len(c.Rules) >= 2 }
	min := Shrink(p, fails)
	if !fails(min) {
		t.Fatalf("shrunk plan no longer fails: %v", min)
	}
	if len(min.Rules) != 2 {
		t.Fatalf("shrunk plan has %d rules, want 2", len(min.Rules))
	}
}
