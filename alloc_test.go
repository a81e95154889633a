// Allocation regression gates: the work-first principle demands that the
// spawn/sync fast path not allocate, and testing.AllocsPerRun makes that a
// deterministic assertion rather than a benchmark number someone has to
// eyeball. Each test drives the real scheduler shape and pins its exact
// allocation count; `make stress-deque` repeats them under the race
// detector (where the counts are inflated by instrumentation, so the
// numeric assertions skip but the shapes still execute).
package cilkgo_test

import (
	"context"
	"runtime"
	"testing"

	"cilkgo"
)

// mustSubmit submits fn with opts under a background context and fails the
// test if Submit refuses it; the caller awaits the returned Ticket.
func mustSubmit(t testing.TB, rt *cilkgo.Runtime, fn func(*cilkgo.Context), opts ...cilkgo.RunOption) *cilkgo.Ticket {
	t.Helper()
	tk, err := rt.Submit(context.Background(), fn, opts...)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return tk
}

// gateAllocs runs f under testing.AllocsPerRun and fails when the average
// allocation count exceeds limit. Under -race the shapes still execute but
// the numeric check is waived: the race runtime allocates shadow state on
// paths that are allocation-free in a normal build. The waiver must be a
// plain return, not t.Skip — gateAllocs runs inside a submitted run on a
// worker goroutine, and Skip's runtime.Goexit would kill the worker mid-task
// and deadlock the join.
func gateAllocs(t *testing.T, name string, limit float64, f func()) {
	t.Helper()
	f() // warm the freelists and pools before counting
	got := testing.AllocsPerRun(100, f)
	t.Logf("%s: %.2f allocs/op (gate ≤%.0f)", name, got, limit)
	if raceEnabled {
		t.Logf("%s: -race build, allocation gate not enforced", name)
		return
	}
	if got > limit {
		t.Errorf("%s allocated %.2f per op, want ≤%.0f", name, got, limit)
	}
}

// TestAllocSpawnSyncPingPong pins the core work-first claim: one spawn plus
// one sync on a warm worker allocates at most once — and with the task,
// frame, and Context fused into one recycled object, actually zero.
func TestAllocSpawnSyncPingPong(t *testing.T) {
	rt := cilkgo.New(cilkgo.WithWorkers(2))
	defer rt.Shutdown()
	child := func(*cilkgo.Context) {}
	err := mustSubmit(t, rt, func(c *cilkgo.Context) {
		gateAllocs(t, "spawn/sync ping-pong", 1, func() {
			c.Spawn(child)
			c.Sync()
		})
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllocObservedSpawnSyncPingPong is the ping-pong gate on a runtime
// built WithObserver: the online clocks and the per-run accounting count in
// plain per-worker fields, so arming them adds no allocation per spawn.
func TestAllocObservedSpawnSyncPingPong(t *testing.T) {
	rt := cilkgo.New(cilkgo.WithWorkers(2), cilkgo.WithObserver(cilkgo.NewObserver(0)))
	defer rt.Shutdown()
	child := func(*cilkgo.Context) {}
	err := mustSubmit(t, rt, func(c *cilkgo.Context) {
		gateAllocs(t, "observed spawn/sync ping-pong", 1, func() {
			c.Spawn(child)
			c.Sync()
		})
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllocObservedRunSwitch pins the run-switch flush: two observed runs
// in flight at once on two workers, each a closure-free binary spawn tree,
// so a worker waiting in one run's sync steals and runs the other's
// subtrees and its per-run accounting switches runs. The steals grow with
// the trees; allocations per pair of runs must not — they are the two
// Submit round trips, whatever the tree size. The count is taken at full
// parallelism (AllocsPerRun would pin GOMAXPROCS to 1, and with one
// processor the workers seldom steal).
func TestAllocObservedRunSwitch(t *testing.T) {
	rt := cilkgo.New(cilkgo.WithWorkers(2), cilkgo.WithObserver(cilkgo.NewObserver(0)))
	defer rt.Shutdown()
	pair := func(depth int) float64 {
		var node func(c *cilkgo.Context)
		node = func(c *cilkgo.Context) {
			if c.Depth() < depth {
				c.Spawn(node)
				c.Spawn(node)
				c.Sync()
			}
		}
		var steals int64
		f := func() {
			a, b := mustSubmit(t, rt, node), mustSubmit(t, rt, node)
			if err := a.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := b.Wait(); err != nil {
				t.Fatal(err)
			}
			steals += a.Stats().Steals + b.Stats().Steals
		}
		f()
		const pairs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / pairs
		t.Logf("depth %d: %.2f allocs per pair of runs, %d steals in all", depth, got, steals)
		return got
	}
	if raceEnabled {
		// The shapes still run; the counts are the race runtime's.
		pair(4)
		pair(8)
		t.Log("-race build, allocation gate not enforced")
		return
	}
	small, large := pair(4), pair(14)
	if large > small+1 {
		t.Errorf("a pair of runs allocated %.2f at depth 14 against %.2f at depth 4: allocations grow with the run", large, small)
	}
}

// TestAllocWideForChunk pins the cilk_for steady state: a wide loop costs
// one range task plus one loopState per For, and nothing per chunk — the
// peel protocol republishes the same task object. The budget covers the
// per-For setup only.
func TestAllocWideForChunk(t *testing.T) {
	rt := cilkgo.New(cilkgo.WithWorkers(2))
	defer rt.Shutdown()
	sink := make([]uint8, 1<<14)
	err := mustSubmit(t, rt, func(c *cilkgo.Context) {
		gateAllocs(t, "wide cilk_for", 8, func() {
			cilkgo.For(c, 0, len(sink), func(_ *cilkgo.Context, i int) {
				sink[i]++
			})
		})
	}).Wait()
	if err != nil {
		t.Fatal(err)
	}
}

// TestAllocSubmitRoundTrip pins the uncontended Submit/Wait round trip: the
// root task rides inside its pooled frame, so a whole run costs only the
// runState, ticket, done-channel, and stats-cell setup — a fixed constant,
// independent of what the run spawns.
func TestAllocSubmitRoundTrip(t *testing.T) {
	rt := cilkgo.New(cilkgo.WithWorkers(2))
	defer rt.Shutdown()
	fn := func(*cilkgo.Context) {}
	gateAllocs(t, "submit round-trip", 24, func() {
		if err := mustSubmit(t, rt, fn).Wait(); err != nil {
			t.Fatal(err)
		}
	})
}
