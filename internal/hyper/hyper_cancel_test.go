package hyper_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cilkgo/internal/hyper"
	"cilkgo/internal/pfor"
	"cilkgo/internal/sched"
)

// TestReducerDeterministicOnCancelledLoop: when a cilk_for is cancelled
// mid-flight, the chunks that did run still fold their reducer views in
// exact serial order — the paper's §5 ordering guarantee degrades to "an
// ordered subsequence", never to an arbitrary interleaving. Each executed
// chunk appends ascending indices and chunks fold in spawn (= index) order,
// so the final list must be strictly increasing.
func TestReducerDeterministicOnCancelledLoop(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		rt := sched.New(sched.WithWorkers(workers))
		out := hyper.NewListAppend[int]()
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		const n = 20_000
		tk, err := rt.Submit(ctx, func(c *sched.Context) {
			pfor.ForGrain(c, 0, n, 16, func(c *sched.Context, i int) {
				if seen.Add(1) >= 200 {
					cancel()
					// Hold the strand until the watcher has raised the
					// cancel gate, so later chunks observably skip.
					for !c.Cancelled() {
						time.Sleep(5 * time.Microsecond)
					}
				}
				v := out.View(c)
				*v = append(*v, i)
			})
		})
		if err == nil {
			err = tk.Wait()
		}
		if !errors.Is(err, sched.ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		got := out.Value()
		if len(got) == 0 {
			t.Fatalf("workers=%d: cancelled loop folded no views", workers)
		}
		if len(got) >= n {
			t.Fatalf("workers=%d: nothing was skipped (%d elements)", workers, len(got))
		}
		for k := 1; k < len(got); k++ {
			if got[k] <= got[k-1] {
				t.Fatalf("workers=%d: fold order broken at %d: %d after %d",
					workers, k, got[k], got[k-1])
			}
		}
		rt.Shutdown()
	}
}

// TestReducerUntouchedOnPreCancelledRun: a reducer never touched by an
// abandoned computation reports its identity, not stale state.
func TestReducerUntouchedOnPreCancelledRun(t *testing.T) {
	rt := sched.New(sched.WithWorkers(2))
	defer rt.Shutdown()
	sum := hyper.NewAdder[int]()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Submit(ctx, func(c *sched.Context) {
		*sum.View(c) += 1
	}); !errors.Is(err, sched.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if got := sum.Value(); got != 0 {
		t.Fatalf("untouched reducer = %d, want identity 0", got)
	}
}
