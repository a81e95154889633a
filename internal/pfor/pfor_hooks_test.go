package pfor_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"cilkgo/internal/pfor"
	"cilkgo/internal/sched"
)

// hookLog records the serial-elision hook stream interleaved with loop-body
// markers, so tests can pin where iterations land between the parallel
// control events.
type hookLog struct{ events []string }

func (h *hookLog) Spawn()         { h.events = append(h.events, "SP") }
func (h *hookLog) FrameStart()    { h.events = append(h.events, "FS") }
func (h *hookLog) FrameEnd()      { h.events = append(h.events, "FE") }
func (h *hookLog) Sync()          { h.events = append(h.events, "SY") }
func (h *hookLog) CallStart()     { h.events = append(h.events, "CS") }
func (h *hookLog) CallEnd()       { h.events = append(h.events, "CE") }
func (h *hookLog) mark(s string)  { h.events = append(h.events, s) }
func (h *hookLog) String() string { return strings.Join(h.events, " ") }

// TestForGrainHookOrder pins the exact event stream of a cilk_for under the
// serial elision. ForGrain(0, 4, grain=1) is the divide-and-conquer
// recursion of §2: a called frame (CS/CE) wrapping spawned halves, with the
// loop's implicit sync (SY) joining them before CE, and the iterations
// executing in ascending serial order.
func TestForGrainHookOrder(t *testing.T) {
	rec := &hookLog{}
	rt := sched.New(sched.WithSerialElision(), sched.WithHooks(rec))
	tk, err := rt.Submit(context.Background(), func(c *sched.Context) {
		pfor.ForGrain(c, 0, 4, 1, func(c *sched.Context, i int) {
			rec.mark(fmt.Sprintf("b%d", i))
		})
	})
	if err == nil {
		err = tk.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	// Root frame, then the loop's Call: [0,4) spawns [0,2) (which spawns
	// [0,1)), then spawns [2,3), runs iteration 3 itself, and syncs.
	want := "FS CS SP FS SP FS b0 SY FE b1 SY FE SP FS b2 SY FE b3 SY CE SY FE"
	if got := rec.String(); got != want {
		t.Fatalf("hook stream:\n got %s\nwant %s", got, want)
	}
}

// TestForRangeHookStreamMatchesFor: the range form changes how many body
// calls a chunk costs, not the dag. Under the serial elision ForRange's hook
// stream, with its iterations marked, equals For's over the same range.
func TestForRangeHookStreamMatchesFor(t *testing.T) {
	stream := func(loop func(c *sched.Context, rec *hookLog)) string {
		rec := &hookLog{}
		rt := sched.New(sched.WithSerialElision(), sched.WithHooks(rec))
		tk, err := rt.Submit(context.Background(), func(c *sched.Context) { loop(c, rec) })
		if err == nil {
			err = tk.Wait()
		}
		if err != nil {
			t.Fatal(err)
		}
		return rec.String()
	}
	const lo, hi = 3, 103 // 100 iterations: the automatic grain makes 8 chunks
	perIter := stream(func(c *sched.Context, rec *hookLog) {
		pfor.For(c, lo, hi, func(c *sched.Context, i int) { rec.mark(fmt.Sprintf("b%d", i)) })
	})
	ranged := stream(func(c *sched.Context, rec *hookLog) {
		pfor.ForRange(c, lo, hi, func(c *sched.Context, l, h int) {
			for i := l; i < h; i++ {
				rec.mark(fmt.Sprintf("b%d", i))
			}
		})
	})
	if ranged != perIter {
		t.Fatalf("hook streams differ:\n   For %s\nForRange %s", perIter, ranged)
	}
	if n := strings.Count(perIter, "SP"); n != 7 {
		t.Fatalf("For spawned %d times, want 7 (8 chunks)", n)
	}
}

// TestNestedForHookStructure runs a cilk_for inside a cilk_for and checks
// the structural invariants of the hook stream rather than one exact
// interleaving: brackets balance, spawned frames are announced, and every
// frame passes its implicit sync before closing.
func TestNestedForHookStructure(t *testing.T) {
	rec := &hookLog{}
	rt := sched.New(sched.WithSerialElision(), sched.WithHooks(rec))
	seen := map[string]bool{}
	tk, err := rt.Submit(context.Background(), func(c *sched.Context) {
		pfor.ForGrain(c, 0, 2, 1, func(c *sched.Context, i int) {
			pfor.ForGrain(c, 0, 2, 1, func(c *sched.Context, j int) {
				seen[fmt.Sprintf("%d,%d", i, j)] = true
			})
		})
	})
	if err == nil {
		err = tk.Wait()
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("ran %d distinct (i,j) iterations, want 4: %v", len(seen), seen)
	}

	var frames, calls, spawns, frameStarts, callStarts int
	prev := ""
	for k, ev := range rec.events {
		switch ev {
		case "SP":
			spawns++
		case "FS":
			frames++
			frameStarts++
			// Every spawned frame is announced by Spawn, except the root
			// frame that opens the stream.
			if k > 0 && prev != "SP" {
				t.Fatalf("event %d: FS preceded by %q, want SP", k, prev)
			}
		case "FE":
			frames--
			if frames < 0 {
				t.Fatalf("event %d: FrameEnd without matching FrameStart", k)
			}
			// A frame's implicit sync fires before it closes.
			if prev != "SY" {
				t.Fatalf("event %d: FE preceded by %q, want SY", k, prev)
			}
		case "CS":
			calls++
			callStarts++
		case "CE":
			calls--
			if calls < 0 {
				t.Fatalf("event %d: CallEnd without matching CallStart", k)
			}
			if prev != "SY" {
				t.Fatalf("event %d: CE preceded by %q, want SY", k, prev)
			}
		}
		prev = ev
	}
	if frames != 0 || calls != 0 {
		t.Fatalf("unbalanced brackets: %d frames, %d calls still open", frames, calls)
	}
	if spawns != frameStarts-1 {
		t.Fatalf("%d spawns for %d non-root frames", spawns, frameStarts-1)
	}
	// One Call per ForGrain invocation: the outer loop plus one inner loop
	// per outer iteration.
	if callStarts != 3 {
		t.Fatalf("saw %d CallStart events, want 3", callStarts)
	}
	if rec.events[len(rec.events)-1] != "FE" {
		t.Fatalf("stream ends with %q, want root FE", rec.events[len(rec.events)-1])
	}
}
