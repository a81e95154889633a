package main

import (
	"math/rand"
	"reflect"
	"testing"
)

// The seed orders the requests; it must not change the mix.
func TestScheduleHoldsTheMixInEveryChunk(t *testing.T) {
	weights := []float64{0.56, 0.2, 0.04, 0.1, 0.1}
	draw := func(seed int64) []request {
		return seededSchedule(rand.New(rand.NewSource(seed)), weights, scheduleLen)
	}
	a, again, b := draw(1), draw(1), draw(2)
	if !reflect.DeepEqual(a, again) {
		t.Error("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("two seeds gave the same schedule")
	}
	want := []int{56, 20, 4, 10, 10}
	for _, s := range [][]request{a, b} {
		if len(s) != scheduleLen {
			t.Fatalf("length %d", len(s))
		}
		for at := 0; at < len(s); at += scheduleChunk {
			got := make([]int, len(weights))
			for _, rq := range s[at : at+scheduleChunk] {
				got[rq.kind]++
				if rq.tenant < 0 || rq.tenant >= len(tenants) {
					t.Fatalf("tenant %d", rq.tenant)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk at %d holds %v, want %v", at, got, want)
			}
		}
	}
}

// Every kind's platform version must compute what its serial elision does,
// for any seed: the oracle depends on it.
func TestPlansAgreeWithTheirSerialElision(t *testing.T) {
	e := env{sz: smokeSizes, procs: 2}
	for _, name := range []string{"fib", "fib_observed", "matmul", "loop_steps", "submit_mix"} {
		for seed := int64(1); seed <= 3; seed++ {
			p, err := builders[name](e, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			in, warm, err := setUp(p, e.procs)
			if err != nil {
				t.Fatal(err)
			}
			if warm.failed != 0 || warm.attempted == 0 {
				t.Errorf("%s seed %d: %d of %d warm-up operations failed", name, seed, warm.failed, warm.attempted)
			}
			if err := in.close(); err != nil {
				t.Error(err)
			}
		}
	}
}
