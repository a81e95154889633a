package deque

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// testGate is a deterministic Gate for exercising the forced-failure and
// delayed-steal paths. Safe for concurrent thieves. A Fail opportunity fails
// at random with rate, and also when it is the failAt-th opportunity the
// gate has seen (counted in reached). Every Delay opportunity yields the
// processor sched times.
type testGate struct {
	mu      sync.Mutex
	rng     *rand.Rand
	rate    float64
	failAt  int64
	reached int64
	sched   int
	failed  atomic.Int64 // forced failures
	delayed atomic.Int64 // Delay calls that yielded
}

func newTestGate(seed int64) *testGate {
	return &testGate{rng: rand.New(rand.NewSource(seed))}
}

func (g *testGate) Fail(GateOp) bool {
	g.mu.Lock()
	g.reached++
	hit := g.reached == g.failAt || g.rng.Float64() < g.rate
	g.mu.Unlock()
	if hit {
		g.failed.Add(1)
	}
	return hit
}

func (g *testGate) Delay(GateOp) {
	if g.sched == 0 {
		return
	}
	g.delayed.Add(1)
	for i := 0; i < g.sched; i++ {
		runtime.Gosched()
	}
}

// TestGateStealBatchForcedCASFailure: steals forced to report a lost race
// must leave the deque intact — the items stay claimable by the owner and
// by later thieves.
func TestGateStealBatchForcedCASFailure(t *testing.T) {
	d := New[int]()
	g := newTestGate(1)
	g.rate = 1 // every steal fails
	d.SetGate(g)
	vals := make([]int, 16)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	dst := New[int]()
	if first, moved := d.StealBatch(dst); first != nil || moved != 0 {
		t.Fatalf("StealBatch under forced steal failure returned (%v, %d), want (nil, 0)", first, moved)
	}
	if v := d.Steal(); v != nil {
		t.Fatalf("Steal under forced failure = %v, want nil", v)
	}
	if g.failed.Load() != 2 {
		t.Fatalf("forced failure fired %d times, want 2", g.failed.Load())
	}
	if d.Size() != len(vals) || !dst.Empty() {
		t.Fatalf("sizes %d/%d after failed steals, want %d/0", d.Size(), dst.Size(), len(vals))
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

// stallGate parks the first thief to reach Steal's delay window until the
// owner has popped the item that thief read.
type stallGate struct {
	reached chan struct{} // closed when a thief is inside the window
	popped  chan struct{} // closed by the owner after its pop
	once    sync.Once
}

func (g *stallGate) Fail(GateOp) bool { return false }

func (g *stallGate) Delay(GateOp) {
	g.once.Do(func() {
		close(g.reached)
		<-g.popped
	})
}

// TestGateStealLostCAS forces the owner's last-item pop to win against a
// thief by construction: the thief reads the only item, then stalls between
// that read and its CAS on top until the owner has popped the same item.
// The owner's CAS advances top first, so the thief's CAS must fail and the
// item is consumed exactly once, by the owner.
func TestGateStealLostCAS(t *testing.T) {
	d := New[int]()
	g := &stallGate{reached: make(chan struct{}), popped: make(chan struct{})}
	d.SetGate(g)
	x := 7
	d.PushBottom(&x)
	stolen := make(chan *int)
	go func() { stolen <- d.Steal() }()
	select {
	case <-g.reached:
	case v := <-stolen:
		t.Fatalf("Steal returned %v without entering its delay window", v)
	}
	popped := d.PopBottom()
	close(g.popped)
	if popped == nil || *popped != 7 {
		t.Fatalf("owner's PopBottom = %v, want &7", popped)
	}
	if v := <-stolen; v != nil {
		t.Fatalf("thief's Steal = %v after the owner popped the same item, want nil", v)
	}
	if !d.Empty() || d.Steal() != nil || d.PopBottom() != nil {
		t.Fatal("deque not empty after the item was consumed")
	}
}

// TestGateStealBatchExactlyOnce is the fault-injected exactly-once property
// for the thief side, run in make stress-deque under -race: an owner
// churning push/pop races thieves (StealBatch, falling back to Steal) whose
// steals randomly report a lost race or stall between reading the top item
// and the CAS on top — and every item must still be consumed exactly once.
// A scripted phase first fails one steal by construction, so the fault
// fires however the concurrent phase is scheduled.
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
	// every steal reaches the gate. The 2nd steal fails; the steals after it
	// must still consume the item it gave back.
	g.failAt = 2
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
	if f := g.failed.Load(); f != 1 {
		t.Fatalf("scripted phase fired %d steal faults, want 1", f)
	}

	// Concurrent phase: random faults under an owner racing the thieves.
	g.rate = 0.3
	g.sched = 4 // stretch every read-to-CAS window by a few reschedules

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
	// faulted steal path stays exercised right to the end.
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
	if g.failed.Load() < 2 || g.delayed.Load() == 0 {
		t.Fatalf("fault gate never fired in the concurrent phase: %d failures, %d delays",
			g.failed.Load(), g.delayed.Load())
	}
}
