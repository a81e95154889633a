package deque

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testGate is a deterministic Gate for exercising the forced-failure and
// delayed-claim paths. Safe for concurrent thieves. A Fail opportunity
// fails at random with its op's rate, and also when it is the failAt[op]-th
// opportunity of that op the gate has seen (counted in reached).
type testGate struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rates   map[GateOp]float64
	failAt  map[GateOp]int64
	reached map[GateOp]int64
	delay   time.Duration // applied at GateBatchWindow
	sched   int           // extra Gosched calls at GateBatchWindow
	fired   map[GateOp]*atomic.Int64
}

func newTestGate(seed int64) *testGate {
	g := &testGate{
		rng:     rand.New(rand.NewSource(seed)),
		rates:   map[GateOp]float64{},
		failAt:  map[GateOp]int64{},
		reached: map[GateOp]int64{},
		fired:   map[GateOp]*atomic.Int64{},
	}
	for _, op := range []GateOp{GateSteal, GateBatchClaim, GateBatchCAS, GateBatchWindow} {
		g.fired[op] = &atomic.Int64{}
	}
	return g
}

func (g *testGate) Fail(op GateOp) bool {
	g.mu.Lock()
	g.reached[op]++
	hit := g.reached[op] == g.failAt[op] || g.rng.Float64() < g.rates[op]
	g.mu.Unlock()
	if hit {
		g.fired[op].Add(1)
	}
	return hit
}

func (g *testGate) Delay(op GateOp) {
	if op != GateBatchWindow {
		return
	}
	if g.delay > 0 {
		g.fired[op].Add(1)
		time.Sleep(g.delay)
	}
	for i := 0; i < g.sched; i++ {
		g.fired[op].Add(1)
		runtime.Gosched()
	}
}

// TestGateStealBatchForcedCASFailure: a batch whose commit CAS is forced to
// fail must release its claim and leave the deque intact — the items stay
// claimable by the owner and by later thieves.
func TestGateStealBatchForcedCASFailure(t *testing.T) {
	d := New[int]()
	g := newTestGate(1)
	g.rates[GateBatchCAS] = 1 // every batch commit fails
	d.SetGate(g)
	vals := make([]int, 16)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	dst := New[int]()
	if first, moved := d.StealBatch(dst); first != nil || moved != 0 {
		t.Fatalf("StealBatch under forced CAS failure returned (%v, %d), want (nil, 0)", first, moved)
	}
	if g.fired[GateBatchCAS].Load() == 0 {
		t.Fatal("forced CAS failure never fired")
	}
	if d.claim.Load() != 0 {
		t.Fatalf("claim word %d after failed batch, want 0 (released)", d.claim.Load())
	}
	if d.Size() != len(vals) {
		t.Fatalf("deque size %d after failed batch, want %d", d.Size(), len(vals))
	}
	// With the gate cleared, both single steals and batches work again.
	d.SetGate(nil)
	if v := d.Steal(); v == nil || *v != 0 {
		t.Fatalf("Steal after failed batch = %v, want &0", v)
	}
	if first, moved := d.StealBatch(dst); first == nil || *first != 1 || moved == 0 {
		t.Fatalf("StealBatch after recovery = (%v, %d), want oldest item and a surplus", first, moved)
	}
}

// TestGateStealBatchForcedClaimContention: forced claim contention takes the
// fall-back path without ever publishing a claim.
func TestGateStealBatchForcedClaimContention(t *testing.T) {
	d := New[int]()
	g := newTestGate(2)
	g.rates[GateBatchClaim] = 1
	d.SetGate(g)
	x := 7
	d.PushBottom(&x)
	if first, moved := d.StealBatch(New[int]()); first != nil || moved != 0 {
		t.Fatalf("StealBatch = (%v, %d), want forced (nil, 0)", first, moved)
	}
	if d.claim.Load() != 0 {
		t.Fatal("forced claim contention still published a claim")
	}
	if v := d.Steal(); v == nil || *v != 7 {
		t.Fatalf("fallback Steal = %v, want &7", v)
	}
}

// TestGateStealBatchExactlyOnce is the fault-injected exactly-once property
// for the claim-word protocol, run in make stress-deque under -race: an
// owner churning push/pop races many batch thieves whose claims randomly
// fail at the claim, fail at the commit CAS after the claim was visible, or
// hold the claim through an injected delay — and every item must still be
// consumed exactly once. A scripted phase first fails one claim and one
// commit CAS by construction, so both fault kinds fire however the
// concurrent phase is scheduled.
func TestGateStealBatchExactlyOnce(t *testing.T) {
	const (
		thieves  = 4
		items    = 2_000
		scripted = 64 // items of the scripted phase
	)
	d := New[int]()
	g := newTestGate(3)
	d.SetGate(g)

	vals := make([]int, items)
	seen := make([]atomic.Int32, items)
	var consumed atomic.Int64
	take := func(v *int) {
		if v != nil {
			seen[*v].Add(1)
			consumed.Add(1)
		}
	}

	// Scripted phase: one thief batch-steals a deque nobody else touches, so
	// every StealBatch reaches the claim gate and every claimed batch the
	// commit gate. The 2nd claim and the 3rd commit fail; the steals after
	// them must still consume the items those batches gave back.
	g.failAt[GateBatchClaim] = 2
	g.failAt[GateBatchCAS] = 3
	for i := 0; i < scripted; i++ {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	dst := New[int]()
	for !d.Empty() {
		first, _ := d.StealBatch(dst)
		take(first)
		for v := dst.PopBottom(); v != nil; v = dst.PopBottom() {
			take(v)
		}
	}
	if c, x := g.fired[GateBatchClaim].Load(), g.fired[GateBatchCAS].Load(); c != 1 || x != 1 {
		t.Fatalf("scripted phase fired %d claim and %d cas faults, want 1 and 1", c, x)
	}

	// Concurrent phase: random faults under an owner racing the thieves.
	g.rates[GateSteal] = 0.2
	g.rates[GateBatchClaim] = 0.3
	g.rates[GateBatchCAS] = 0.3
	g.sched = 4 // stretch every claim window by a few reschedules

	var wg sync.WaitGroup
	done := make(chan struct{})
	for th := 0; th < thieves; th++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			dst := New[int]() // thief-private; only this goroutine touches it
			for {
				first, _ := d.StealBatch(dst)
				if first == nil {
					first = d.Steal()
				}
				take(first)
				for v := dst.PopBottom(); v != nil; v = dst.PopBottom() {
					take(v)
				}
				if first == nil {
					select {
					case <-done:
						// Final sweep after the owner finished.
						for v := d.Steal(); v != nil; v = d.Steal() {
							take(v)
						}
						return
					default:
						runtime.Gosched() // don't starve the owner on small GOMAXPROCS
					}
				}
			}
		}(th)
	}

	for i := scripted; i < items; i++ {
		vals[i] = i
		d.PushBottom(&vals[i])
		if i%7 == 0 {
			take(d.PopBottom())
		}
		if i%64 == 0 {
			runtime.Gosched() // let the thieves see a non-empty deque
		}
	}
	// The thieves drain the remainder; the owner just waits for them so the
	// batch path stays exercised right to the end.
	for !d.Empty() {
		runtime.Gosched()
	}
	close(done)
	wg.Wait()

	if n := consumed.Load(); n != items {
		t.Fatalf("consumed %d items, want %d", n, items)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("item %d consumed %d times, want exactly once", i, n)
		}
	}
	if g.fired[GateBatchCAS].Load() == 0 || g.fired[GateBatchClaim].Load() == 0 {
		t.Fatalf("fault gate never fired: %v claim, %v cas",
			g.fired[GateBatchClaim].Load(), g.fired[GateBatchCAS].Load())
	}
}

// TestGateClaimWindowBackoff: while a batch holds its claim through an
// injected delay, the owner's PopBottom must back off rather than pop a
// claimed item; once the batch commits, owner and thief hold disjoint
// items.
func TestGateClaimWindowBackoff(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		d := New[int]()
		g := newTestGate(int64(trial))
		g.delay = 50 * time.Microsecond
		d.SetGate(g)
		const n = 10
		vals := make([]int, n)
		for i := range vals {
			vals[i] = i
			d.PushBottom(&vals[i])
		}
		var got [n]atomic.Int32
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // thief: one delayed batch
			defer wg.Done()
			dst := New[int]()
			if first, _ := d.StealBatch(dst); first != nil {
				got[*first].Add(1)
				for v := dst.PopBottom(); v != nil; v = dst.PopBottom() {
					got[*v].Add(1)
				}
			}
		}()
		go func() { // owner: drain from the bottom through the claim window
			defer wg.Done()
			for i := 0; i < n; i++ {
				if v := d.PopBottom(); v != nil {
					got[*v].Add(1)
				}
			}
		}()
		wg.Wait()
		for v := d.PopBottom(); v != nil; v = d.PopBottom() {
			got[*v].Add(1)
		}
		for i := range got {
			if c := got[i].Load(); c > 1 {
				t.Fatalf("trial %d: item %d consumed %d times", trial, i, c)
			}
		}
	}
}
