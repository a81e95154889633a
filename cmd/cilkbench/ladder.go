package main

import (
	"context"
	"runtime"
	"time"

	"cilkgo"
	"cilkgo/internal/deque"
	"cilkgo/internal/hyper"
	"cilkgo/internal/pfor"
	"cilkgo/internal/workloads"
)

// The cost ladder: one microbenchmark per layer, each timing calls into the
// layer's public functions from here. Every rung is contained in the one
// above it — a deque push+pop inside a spawn+sync, a spawn+sync inside a
// Submit round trip, a Submit round trip inside an HTTP request — so each
// rung's share of the next says where a request's fixed cost goes.

type ladder struct {
	metrics     map[string]metric
	diagnostics map[string]metric
}

// ladderBatches is how many timed batches each rung takes its median over.
const ladderBatches = 9

// perOp runs batch ladderBatches times after one warm-up and returns the
// median cost per operation in nanoseconds. batch returns how many
// operations it timed and how long they took.
func perOp(batch func() (ops int, d time.Duration)) float64 {
	batch()
	xs := make([]float64, ladderBatches)
	for i := range xs {
		ops, d := batch()
		xs[i] = float64(d.Nanoseconds()) / float64(ops)
	}
	return median(xs)
}

// inRoot runs fn as the root of a computation on rt and waits for it.
func inRoot(rt *cilkgo.Runtime, fn func(c *cilkgo.Context)) error {
	tk, err := rt.Submit(context.Background(), fn)
	if err != nil {
		return err
	}
	return tk.Wait()
}

// rootOp is perOp for operations that need a strand context: each batch is
// one root on rt whose body times n operations.
func rootOp(rt *cilkgo.Runtime, n int, body func(c *cilkgo.Context, n int)) (float64, error) {
	var err error
	ns := perOp(func() (int, time.Duration) {
		var d time.Duration
		if e := inRoot(rt, func(c *cilkgo.Context) {
			t0 := time.Now()
			body(c, n)
			d = time.Since(t0)
		}); e != nil {
			err = e
		}
		return n, d
	})
	return ns, err
}

func dequeRungs(scale int) (pushpop, steal, batch float64) {
	n := 1 << 16 / scale
	item := 1
	own := deque.New[int]()
	pushpop = perOp(func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			own.PushBottom(&item)
			own.PopBottom()
		}
		return n, time.Since(t0)
	})

	victim := deque.New[int]()
	fill := func() {
		for i := 0; i < n; i++ {
			victim.PushBottom(&item)
		}
	}
	steal = perOp(func() (int, time.Duration) {
		fill()
		t0 := time.Now()
		for victim.Steal() != nil {
		}
		return n, time.Since(t0)
	})

	// StealBatch moves its claim onto the thief's deque; the thief pops it
	// dry between batches (untimed) as a worker would by running the tasks.
	thief := deque.New[int]()
	batch = perOp(func() (int, time.Duration) {
		fill()
		var d time.Duration
		for {
			t0 := time.Now()
			first, _ := victim.StealBatch(thief)
			d += time.Since(t0)
			if first == nil {
				return n, d
			}
			for thief.PopBottom() != nil {
			}
		}
	})
	return pushpop, steal, batch
}

func nop(*cilkgo.Context) {}

// runLadder measures every rung. Counts are fixed (scaled down by -smoke),
// so the ladder does the same work on every commit.
func runLadder(cfg config) (*ladder, error) {
	scale := cfg.sz.ladderScale
	l := &ladder{metrics: map[string]metric{}, diagnostics: map[string]metric{}}
	set := func(name string, v float64, unit string) { l.metrics[name] = metric{v, unit} }

	pushpop, steal, batch := dequeRungs(scale)
	set("deque.pushpop_ns", pushpop, "ns")
	set("deque.steal_ns", steal, "ns")
	set("deque.stealbatch_ns_per_item", batch, "ns")

	one := cilkgo.New(cilkgo.WithWorkers(1))
	defer one.Shutdown()
	wide := cilkgo.New(cilkgo.WithWorkers(cfg.procs))
	defer wide.Shutdown()

	// Spawn+sync ping-pong on one worker: the spawned child is popped right
	// back by its parent's sync, which is the path fib takes 1.35 M times.
	n := 1 << 16 / scale
	pingPong := func(c *cilkgo.Context, n int) {
		for i := 0; i < n; i++ {
			c.Spawn(nop)
			c.Sync()
		}
	}
	spawn, err := rootOp(one, n, pingPong)
	if err != nil {
		return nil, err
	}
	set("sched.spawn_sync_ns", spawn, "ns")

	// Heap allocations per spawn+sync in steady state, counted exactly by
	// the Go runtime; nothing else in this process allocates meanwhile.
	var allocs float64
	if err := inRoot(one, func(c *cilkgo.Context) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pingPong(c, n)
		runtime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}); err != nil {
		return nil, err
	}
	set("sched.spawn_allocs", allocs, "count")

	chunk, err := rootOp(one, n, func(c *cilkgo.Context, n int) {
		pfor.ForGrain(c, 0, n, 1, func(*cilkgo.Context, int) {})
	})
	if err != nil {
		return nil, err
	}
	set("pfor.chunk_ns", chunk, "ns")

	adder := hyper.NewAdder[int64]()
	view, err := rootOp(one, n, func(c *cilkgo.Context, n int) {
		for i := 0; i < n; i++ {
			*adder.View(c)++
		}
	})
	if err != nil {
		return nil, err
	}
	set("hyper.view_ns", view, "ns")

	add := hyper.FuncMonoid(func() int64 { return 0 }, func(l, r int64) int64 { return l + r })
	var sink int64
	reduce, err := rootOp(one, 16*n, func(c *cilkgo.Context, n int) {
		sink += pfor.Reduce(c, 0, n, add, func(_ *cilkgo.Context, i int) int64 { return int64(i) })
	})
	if err != nil {
		return nil, err
	}
	set("hyper.reduce_ns_per_iter", reduce, "ns")

	// Submit round trips of an empty root on the nproc runtime, back to
	// back, recorded through the same spans the traced workloads use: the
	// Submit call, the lane wait, and the whole round trip.
	empty := &kind{name: "empty", par: func(*cilkgo.Context) float64 { return 0 }}
	a := &rtArm{rt: wide}
	rec := newRecorder()
	trips := 20000 / scale
	for i := 0; i < trips; i++ {
		if _, err := a.do(empty, request{}, int64(i), rec); err != nil {
			return nil, err
		}
	}
	acct := account(rec.spans)
	set("sched.submit_call_us", acct["submit"].TotalUS.Median, "us")
	set("sched.queue_wait_us", acct["queue"].TotalUS.Median, "us")
	rtt := acct["request:empty"].TotalUS.Median
	set("sched.submit_rtt_us", rtt, "us")

	// The same Submit to a runtime whose workers have had time to park: the
	// lane wait is now a condition-variable wake-up.
	var wakes []float64
	for i := 0; i < 2+64/scale; i++ {
		time.Sleep(2 * time.Millisecond)
		tk, err := wide.Submit(context.Background(), nop)
		if err != nil {
			return nil, err
		}
		if err := tk.Wait(); err != nil {
			return nil, err
		}
		wakes = append(wakes, float64(tk.QueueLatency().Nanoseconds())/1e3)
	}
	set("sched.wake_us", median(wakes), "us")

	// One HTTP request through examples/serve with next to no work in it.
	srv, err := startServer(cfg.serveBin, cfg.procs, false)
	if err != nil {
		return nil, err
	}
	defer srv.close()
	tiny := sinsumKind(1, 1)
	var gets []float64
	for i := 0; i < 2000/scale; i++ {
		t0 := time.Now()
		if _, err := srv.do(&tiny, request{}, int64(i), nil); err != nil {
			return nil, err
		}
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	httpRTT := median(gets)
	set("serve.http_rtt_us", httpRTT, "us")
	set("serve.http_overhead_us", httpRTT-rtt, "us")

	// fib on a plain and on an observed nproc runtime, interleaved; the
	// ratio per pair cancels the host, the median over pairs is the cost of
	// arming the observer.
	observed := cilkgo.New(cilkgo.WithWorkers(cfg.procs), cilkgo.WithObserver(cilkgo.NewObserver(0)))
	defer observed.Shutdown()
	fibN := cfg.sz.fibN - 3
	timeFib := func(rt *cilkgo.Runtime) (float64, error) {
		t0 := time.Now()
		err := inRoot(rt, func(c *cilkgo.Context) { workloads.Fib(c, fibN) })
		return time.Since(t0).Seconds(), err
	}
	var pairs []float64
	for i := 0; i <= ladderBatches; i++ {
		p, err := timeFib(wide)
		if err != nil {
			return nil, err
		}
		o, err := timeFib(observed)
		if err != nil {
			return nil, err
		}
		if i > 0 { // the first pair warms the observed runtime's freelists
			pairs = append(pairs, o/p)
		}
	}
	set("observer_cost_x", median(pairs), "x")

	// Each rung's share of the rung above.
	l.diagnostics["share.deque_of_spawn"] = metric{pushpop / spawn, "ratio"}
	l.diagnostics["share.spawn_of_submit"] = metric{spawn / (rtt * 1e3), "ratio"}
	l.diagnostics["share.submit_of_http"] = metric{rtt / httpRTT, "ratio"}
	return l, nil
}
