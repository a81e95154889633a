package deque

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStealBatchEmpty(t *testing.T) {
	d, dst := New[int](), New[int]()
	if first, moved := d.StealBatch(dst); first != nil || moved != 0 {
		t.Fatalf("StealBatch on empty = (%v, %d), want (nil, 0)", first, moved)
	}
}

func TestStealBatchSingleton(t *testing.T) {
	d, dst := New[int](), New[int]()
	v := 7
	d.PushBottom(&v)
	first, moved := d.StealBatch(dst)
	if first == nil || *first != 7 || moved != 0 {
		t.Fatalf("StealBatch = (%v, %d), want (&7, 0)", first, moved)
	}
	if !d.Empty() || !dst.Empty() {
		t.Fatal("both deques should be empty after a singleton batch")
	}
}

// TestStealBatchTakesHalf checks the batch size rule: half the visible items,
// rounded up.
func TestStealBatchTakesHalf(t *testing.T) {
	cases := []struct{ n, take int }{
		{1, 1}, {2, 1}, {3, 2}, {7, 4}, {10, 5},
		{64, 32}, {640, 320},
	}
	for _, tc := range cases {
		d, dst := New[int](), New[int]()
		vals := make([]int, tc.n)
		for i := range vals {
			vals[i] = i
			d.PushBottom(&vals[i])
		}
		first, moved := d.StealBatch(dst)
		if first == nil {
			t.Fatalf("n=%d: StealBatch failed with no contention", tc.n)
		}
		if got := moved + 1; got != tc.take {
			t.Errorf("n=%d: batch took %d items, want %d", tc.n, got, tc.take)
		}
		if d.Size() != tc.n-tc.take {
			t.Errorf("n=%d: victim has %d items left, want %d", tc.n, d.Size(), tc.n-tc.take)
		}
	}
}

// TestStealBatchOrder checks the ordering contract: the returned item is the
// oldest (what Steal would have returned), the thief's next PopBottom sees
// the newest stolen item, and other thieves stealing from dst see the
// oldest remaining — dst continues the victim's top-to-bottom order.
func TestStealBatchOrder(t *testing.T) {
	d, dst := New[int](), New[int]()
	vals := make([]int, 10)
	for i := range vals {
		vals[i] = i
		d.PushBottom(&vals[i])
	}
	first, moved := d.StealBatch(dst) // takes 0..4
	if first == nil || *first != 0 || moved != 4 {
		t.Fatalf("StealBatch = (%v, %d), want (&0, 4)", first, moved)
	}
	if got := dst.PopBottom(); got == nil || *got != 4 {
		t.Fatalf("thief's PopBottom = %v, want 4 (newest stolen)", got)
	}
	if got := dst.Steal(); got == nil || *got != 1 {
		t.Fatalf("Steal from thief = %v, want 1 (oldest moved)", got)
	}
	if got := d.Steal(); got == nil || *got != 5 {
		t.Fatalf("Steal from victim = %v, want 5 (oldest left)", got)
	}
}

// TestStealBatchClearsSlots and friends are the GC-observable regression
// tests for the slot-retention bug: before slots were cleared on every
// successful pop and steal, the live ring pinned consumed items (and the
// frame trees they reference) against the garbage collector until the slot
// happened to be overwritten.

type payload struct{ pad [64]byte }

// consumeAll pops and steals everything out of d (and the batch overflow out
// of a scratch deque) inside its own stack frame, so no stack slot keeps a
// consumed item reachable after it returns.
func consumeAll(t *testing.T, d *Deque[payload], how string) {
	t.Helper()
	scratch := New[payload]()
	for {
		switch how {
		case "pop":
			if d.PopBottom() == nil {
				return
			}
		case "steal":
			if d.Steal() == nil {
				return
			}
		case "batch":
			first, _ := d.StealBatch(scratch)
			if first == nil {
				for scratch.PopBottom() != nil {
				}
				return
			}
		}
	}
}

func testSlotRetention(t *testing.T, how string) {
	d := New[payload]()
	const n = minCapacity / 2 // stay below capacity: growth must not be the cleaner
	var finalized atomic.Int32
	for i := 0; i < n; i++ {
		v := new(payload)
		runtime.SetFinalizer(v, func(*payload) { finalized.Add(1) })
		d.PushBottom(v)
	}
	consumeAll(t, d, how)
	deadline := time.Now().Add(5 * time.Second)
	for finalized.Load() < n && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	// The deque itself must stay alive throughout: the bug is the *live*
	// ring retaining consumed items.
	runtime.KeepAlive(d)
	if got := finalized.Load(); got != n {
		t.Fatalf("after %s-consuming and GC, %d/%d items were collected; the ring retains the rest", how, got, n)
	}
}

func TestPopBottomClearsSlots(t *testing.T)  { testSlotRetention(t, "pop") }
func TestStealClearsSlots(t *testing.T)      { testSlotRetention(t, "steal") }
func TestStealBatchClearsSlots(t *testing.T) { testSlotRetention(t, "batch") }

// TestGrowRacesThieves is the grow-vs-steal stress test: the owner pushes
// enough to grow the ring through several capacities (with occasional pops)
// while thieves hammer top with a mix of Steal and StealBatch, and every item
// must be consumed exactly once (count-and-sum invariant). Run under -race
// this also checks the memory-order discipline of the grow publication.
func TestGrowRacesThieves(t *testing.T) {
	const (
		nItems   = 1 << 15 // grows 64 → 32768 if thieves lag
		nThieves = 4
	)
	d := New[int64]()
	vals := make([]int64, nItems)
	seen := make([]atomic.Int32, nItems)
	var consumed, sum atomic.Int64
	tally := func(v *int64) {
		seen[*v-1].Add(1)
		sum.Add(*v)
		consumed.Add(1)
	}

	var wg sync.WaitGroup
	for th := 0; th < nThieves; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			dst := New[int64]() // private: this thief owns it
			for consumed.Load() < nItems {
				if th%2 == 0 {
					// Batch thief: take a batch, then drain everything it
					// moved into the private deque.
					if first, _ := d.StealBatch(dst); first != nil {
						tally(first)
						for {
							v := dst.PopBottom()
							if v == nil {
								break
							}
							tally(v)
						}
						continue
					}
				}
				if v := d.Steal(); v != nil {
					tally(v)
					continue
				}
				runtime.Gosched()
			}
		}(th)
	}

	// Owner: push everything in bursts (outpacing the thieves forces the ring
	// through several growths), popping a little between bursts so the
	// owner/thief arbitration is exercised at every capacity.
	for i := int64(0); i < nItems; i++ {
		vals[i] = i + 1
		d.PushBottom(&vals[i])
		if i%1024 == 1023 {
			for j := 0; j < 8; j++ {
				if v := d.PopBottom(); v != nil {
					tally(v)
				}
			}
		}
	}
	for consumed.Load() < nItems {
		if v := d.PopBottom(); v != nil {
			tally(v)
			continue
		}
		runtime.Gosched()
	}
	wg.Wait()

	if got, want := sum.Load(), int64(nItems)*(nItems+1)/2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("item %d consumed %d times, want exactly once", i+1, n)
		}
	}
}

// TestStealBatchConcurrentSum mixes owner pushes/pops with batch thieves at a
// smaller scale, checking that a batch's run of steals stays disjoint from
// the owner's pops.
func TestStealBatchConcurrentSum(t *testing.T) {
	const (
		nItems   = 1 << 14
		nThieves = 3
	)
	d := New[int64]()
	vals := make([]int64, nItems)
	var consumed, sum atomic.Int64

	var wg sync.WaitGroup
	for th := 0; th < nThieves; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := New[int64]()
			for consumed.Load() < nItems {
				first, _ := d.StealBatch(dst)
				if first == nil {
					first = d.Steal() // a lost race falls back to one more try
				}
				if first == nil {
					runtime.Gosched()
					continue
				}
				sum.Add(*first)
				consumed.Add(1)
				for {
					v := dst.PopBottom()
					if v == nil {
						break
					}
					sum.Add(*v)
					consumed.Add(1)
				}
			}
		}()
	}

	for i := int64(0); i < nItems; i++ {
		vals[i] = i + 1
		d.PushBottom(&vals[i])
		if i%2 == 0 {
			if v := d.PopBottom(); v != nil {
				sum.Add(*v)
				consumed.Add(1)
			}
		}
	}
	for consumed.Load() < nItems {
		if v := d.PopBottom(); v != nil {
			sum.Add(*v)
			consumed.Add(1)
			continue
		}
		runtime.Gosched()
	}
	wg.Wait()

	if got, want := sum.Load(), int64(nItems)*(nItems+1)/2; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}
