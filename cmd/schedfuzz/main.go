// Command schedfuzz is the schedule fuzzer for the work-stealing runtime:
// it executes property suites (loop exactly-once, ordered reducer folds,
// spawn-tree determinism, cancellation at-most-once, drain-never-strands,
// memory-accounting non-negativity) under thousands of seeded fault
// schedules — forced steal/claim failures, stretched race windows, dropped
// and duplicated wakeups, leaked pool objects, eager pushes past the lazy
// spawn policy — with the runtime invariant checker and stall watchdog
// armed, and on odd seeds a run observer too. Each trial counts the
// children its spawns pushed; a trial whose plan forces pushes but whose
// spawns pushed none fails, since its steal faults then had nothing to
// perturb.
//
// Every trial is reproducible: the fault schedule is a pure function of its
// seed. A failing trial is re-run under shrunken fault plans until no rule
// can be removed or attenuated, and the minimal failing script is printed
// as JSON alongside the seed.
//
// Usage:
//
//	schedfuzz -trials 1000 -seed 1            # seeds 1..1000
//	schedfuzz -corpus testdata/corpus.json    # pinned regression seeds first
//	schedfuzz -run 12345 -v                   # reproduce one seed verbosely
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cilkgo/internal/hyper"
	"cilkgo/internal/pfor"
	"cilkgo/internal/sched"
	"cilkgo/internal/schedsan"
)

var (
	trials   = flag.Int("trials", 200, "number of random fault schedules to run")
	seed     = flag.Int64("seed", 1, "first seed; trial i uses seed+i")
	runOne   = flag.Int64("run", 0, "run exactly one seed and exit (0 = disabled)")
	corpus   = flag.String("corpus", "", "JSON file of pinned regression seeds to run first")
	stall    = flag.Duration("stall", 2*time.Second, "watchdog threshold per trial")
	timeout  = flag.Duration("timeout", 30*time.Second, "hard deadline per trial (a hang is a finding)")
	shrink   = flag.Bool("shrink", true, "shrink failing plans to minimal fault scripts")
	verbose  = flag.Bool("v", false, "log every trial")
	maxFails = flag.Int("maxfails", 3, "stop after this many distinct findings")
)

// corpusFile is the pinned-seed format: seeds that previously found bugs
// (regression) plus a representative passing set.
type corpusFile struct {
	Comment string  `json:"comment,omitempty"`
	Seeds   []int64 `json:"seeds"`
}

func main() {
	flag.Parse()
	var seeds []int64
	if *corpus != "" {
		b, err := os.ReadFile(*corpus)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedfuzz:", err)
			os.Exit(2)
		}
		var cf corpusFile
		if err := json.Unmarshal(b, &cf); err != nil {
			fmt.Fprintln(os.Stderr, "schedfuzz: corpus:", err)
			os.Exit(2)
		}
		seeds = append(seeds, cf.Seeds...)
	}
	if *runOne != 0 {
		seeds = []int64{*runOne}
	} else {
		for i := 0; i < *trials; i++ {
			seeds = append(seeds, *seed+int64(i))
		}
	}

	start := time.Now()
	failures := 0
	var faultsTotal, pushesTotal int64
	for i, s := range seeds {
		plan := schedsan.RandomPlan(s)
		res := runTrial(plan, *stall, *timeout)
		faultsTotal += res.faults
		pushesTotal += res.pushes
		if *verbose {
			fmt.Printf("seed %d: %s (%d faults injected, %d of %d spawns pushed)\n",
				s, res.status(), res.faults, res.pushes, res.spawns)
		}
		if res.ok() {
			continue
		}
		failures++
		fmt.Printf("\nFAIL seed %d: %s\nplan: %s\n", s, res.status(), plan)
		for _, f := range res.list() {
			fmt.Printf("  %s\n", f)
		}
		if *shrink {
			min := schedsan.Shrink(plan, func(cand schedsan.Plan) bool {
				for k := 0; k < 2; k++ {
					if !runTrial(cand, *stall, *timeout).ok() {
						return true
					}
				}
				return false
			})
			fmt.Printf("minimal failing fault script: %s\n", min)
		}
		if failures >= *maxFails {
			fmt.Printf("stopping after %d findings (%d/%d trials)\n", failures, i+1, len(seeds))
			break
		}
	}
	fmt.Printf("schedfuzz: %d trials, %d failures, %d faults injected, %.0f pushes per trial, %v\n",
		len(seeds), failures, faultsTotal, float64(pushesTotal)/float64(max(len(seeds), 1)),
		time.Since(start).Round(time.Millisecond))
	if failures > 0 {
		os.Exit(1)
	}
}

// trialResult collects one trial's findings: property failures, invariant
// violations, stall reports, and hangs. Internally locked because a hung
// trial's property goroutine is leaked and may still report findings after
// the trial's deadline fires.
type trialResult struct {
	mu       sync.Mutex
	findings []string
	faults   int64
	// spawns and pushes are the runtime's Stats.Spawns and Stats.Pushed at
	// the end of the trial.
	spawns, pushes int64
}

func (r *trialResult) ok() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.findings) == 0
}

func (r *trialResult) list() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.findings...)
}

func (r *trialResult) status() string {
	r.mu.Lock()
	n := len(r.findings)
	r.mu.Unlock()
	if n == 0 {
		return "ok"
	}
	return fmt.Sprintf("%d findings", n)
}

func (r *trialResult) addf(format string, args ...any) {
	r.mu.Lock()
	r.findings = append(r.findings, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *trialResult) addFaults(n int64) {
	r.mu.Lock()
	r.faults += n
	r.mu.Unlock()
}

// runTrial executes the full property suite on a fresh runtime under the
// given fault plan. Worker count and property order derive from the plan
// seed, so the whole trial is a function of the seed.
func runTrial(plan schedsan.Plan, stallAfter, deadline time.Duration) *trialResult {
	res := &trialResult{}
	opts := schedsan.Options{
		Plan:        plan,
		Invariants:  true,
		StallAfter:  stallAfter,
		OnViolation: func(rep *schedsan.Report) { res.addf("%s", rep) },
		// Every random plan is liveness-safe, so a watchdog finding under one
		// is a scheduler bug (or a starved CI box; the threshold is generous).
		// The rescue broadcast lets the trial still finish either way.
		OnStall: func(rep *schedsan.Report) { res.addf("%s", rep) },
	}
	workers := 2 << (plan.Seed % 3) // 2, 4, or 8
	rtOpts := []sched.Option{sched.WithWorkers(workers), sched.WithSanitize(opts)}
	if plan.Seed%2 != 0 {
		// Odd seeds arm the online work/span clocks and per-run accounting,
		// so every property also runs through the workers' run mirrors.
		rtOpts = append(rtOpts, sched.WithRunObserver(nopObserver{}))
	}
	rt := sched.New(rtOpts...)

	done := make(chan struct{})
	go func() {
		defer close(done)
		properties(rt, res, plan.Seed)
	}()
	select {
	case <-done:
		rt.Shutdown() // runs the post-drain stranding checks
	case <-time.After(deadline):
		res.addf("trial hung: no completion within %v (stall report: %v)", deadline, rt.StallReport())
		// Leak the runtime rather than risk blocking on a hung Shutdown.
	}
	if inj := rt.Sanitizer(); inj != nil {
		res.addFaults(inj.TotalFired())
	}
	st := rt.Stats()
	res.mu.Lock()
	res.spawns, res.pushes = st.Spawns, st.Pushed
	res.mu.Unlock()
	if forcesPushes(plan) && st.Spawns > 0 && st.Pushed == 0 {
		res.addf("push floor: %d spawns pushed nothing under a plan that forces pushes", st.Spawns)
	}
	return res
}

// forcesPushes reports whether plan has a PointPush rule, which makes lazy
// spawns push children they would have run inline.
func forcesPushes(plan schedsan.Plan) bool {
	for _, r := range plan.Rules {
		if r.Point == schedsan.PointPush {
			return true
		}
	}
	return false
}

// nopObserver is the trivial RunObserver odd-seed trials arm.
type nopObserver struct{}

func (nopObserver) RunStart(int64, time.Time) {}
func (nopObserver) RunEnd(sched.RunReport)    {}

// properties is the suite every trial runs. Each property is a correctness
// statement the fault schedule must not be able to break. seed parameterizes
// the randomized shapes (the mixed-QoS storm) so each trial stays a pure
// function of its plan seed.
func properties(rt *sched.Runtime, res *trialResult, seed int64) {
	addf := res.addf

	// Property 1: lazy-loop exactly-once. Every iteration of a cilk_for
	// executes exactly once under any fault schedule.
	{
		const n, grain = 4000, 3
		counts := make([]int32, n)
		var sum atomic.Int64
		var stats sched.Stats
		tk, err := rt.Submit(context.Background(), func(c *sched.Context) {
			pfor.ForGrain(c, 0, n, grain, func(c *sched.Context, i int) {
				atomic.AddInt32(&counts[i], 1)
				sum.Add(int64(i))
			})
		})
		if err == nil {
			err, stats = tk.Wait(), tk.Stats()
		}
		if err != nil {
			addf("loop property: unexpected error %v", err)
		}
		for i := range counts {
			if c := atomic.LoadInt32(&counts[i]); c != 1 {
				addf("loop property: iteration %d ran %d times, want exactly once", i, c)
				break
			}
		}
		if want := int64(n) * (n - 1) / 2; sum.Load() != want {
			addf("loop property: iteration sum %d, want %d", sum.Load(), want)
		}
		if stats.TasksSkipped != 0 {
			addf("loop property: %d tasks skipped on an uncancelled run", stats.TasksSkipped)
		}
	}

	// Property 2: ordered reducer fold. A list-append reducer over an
	// in-order spawn tree, and pfor.Reduce's chunk-local fold of the same
	// leaves with a list-append monoid, must each produce the exact serial
	// order, no matter how views migrate, deposit, and fold under faults.
	{
		const n = 1024
		l := hyper.NewListAppend[int]()
		var walk func(c *sched.Context, lo, hi int)
		walk = func(c *sched.Context, lo, hi int) {
			if hi-lo == 1 {
				l.PushBack(c, lo)
				return
			}
			mid := (lo + hi) / 2
			c.Spawn(func(c *sched.Context) { walk(c, lo, mid) })
			walk(c, mid, hi)
			c.Sync()
		}
		appendList := hyper.FuncMonoid(
			func() []int { return nil },
			func(a, b []int) []int { return append(a, b...) },
		)
		var reduced []int
		tk, err := rt.Submit(context.Background(), func(c *sched.Context) {
			walk(c, 0, n)
			reduced = pfor.Reduce(c, 0, n, appendList, func(_ *sched.Context, i int) []int { return []int{i} })
		})
		if err == nil {
			err = tk.Wait()
		}
		if err != nil {
			addf("fold property: unexpected error %v", err)
		}
		for _, fold := range []struct {
			name string
			got  []int
		}{{"spawn-tree", l.Value()}, {"pfor.Reduce", reduced}} {
			if len(fold.got) != n {
				addf("fold property: %s fold has %d elements, want %d", fold.name, len(fold.got), n)
				continue
			}
			for i, x := range fold.got {
				if x != i {
					addf("fold property: %s serial order broken at %d: got %d", fold.name, i, x)
					break
				}
			}
		}
	}

	// Property 3: spawn-tree determinism. fib's value is wrong if any
	// spawned task is lost, duplicated, or joined early. On an observed
	// runtime the run's online work must be positive and bound its span.
	{
		var got int64
		var fib func(c *sched.Context, n int, out *int64)
		fib = func(c *sched.Context, n int, out *int64) {
			if n < 2 {
				*out = int64(n)
				return
			}
			var a, b int64
			c.Spawn(func(c *sched.Context) { fib(c, n-1, &a) })
			fib(c, n-2, &b)
			c.Sync()
			*out = a + b
		}
		var stats sched.Stats
		tk, err := rt.Submit(context.Background(), func(c *sched.Context) { fib(c, 14, &got) })
		if err == nil {
			err, stats = tk.Wait(), tk.Stats()
		}
		if err != nil {
			addf("fib property: unexpected error %v", err)
		}
		if got != 377 {
			addf("fib property: fib(14) = %d, want 377", got)
		}
		if stats.TasksRun != stats.Spawns {
			addf("fib property: spawns=%d tasksRun=%d, want equal", stats.Spawns, stats.TasksRun)
		}
		if rt.RunObserver() != nil && (stats.Work <= 0 || stats.Span > stats.Work) {
			addf("fib property: observed run has work %v, span %v; want 0 < span ≤ work", stats.Work, stats.Span)
		}
	}

	// Property 4: cancellation at-most-once. A run cancelled mid-flight may
	// skip iterations but must never run one twice, and must report the
	// deadline error (or finish clean).
	{
		const n = 50_000
		counts := make([]int32, n)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
		tk, err := rt.Submit(ctx, func(c *sched.Context) {
			pfor.ForGrain(c, 0, n, 8, func(c *sched.Context, i int) {
				atomic.AddInt32(&counts[i], 1)
			})
		})
		if err == nil {
			err = tk.Wait()
		}
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			addf("cancel property: unexpected error %v", err)
		}
		for i := range counts {
			if c := atomic.LoadInt32(&counts[i]); c > 1 {
				addf("cancel property: iteration %d ran %d times under cancellation", i, c)
				break
			}
		}
	}

	// Property 5: mixed-QoS submission storms. Concurrent Submits across two
	// tenants with opposing classes and priorities — a random subset carrying
	// time budgets tight enough to cancel mid-flight — must each invoke their
	// body at most once (exactly once when the ticket settles clean), keep
	// per-submission reducer folds in serial order, and fail only with the
	// cancellation sentinels. The storm shape is drawn from the plan seed, so
	// the trial stays reproducible.
	{
		const (
			subs = 24
			n    = 64
		)
		type sub struct {
			tenant   string
			class    sched.QoSClass
			prio     int
			budget   time.Duration // 0 = none
			budgeted bool
		}
		rng := rand.New(rand.NewSource(seed ^ 0x51_70_52_4d))
		classes := []sched.QoSClass{sched.QoSInteractive, sched.QoSBatch, sched.QoSBestEffort}
		shapes := make([]sub, subs)
		for i := range shapes {
			shapes[i] = sub{
				tenant: [2]string{"alpha", "beta"}[i%2],
				class:  classes[rng.Intn(len(classes))],
				prio:   rng.Intn(7) - 3,
			}
			if rng.Intn(3) == 0 {
				shapes[i].budgeted = true
				shapes[i].budget = time.Duration(50+rng.Intn(2000)) * time.Microsecond
			}
		}
		counts := make([]int32, subs)
		views := make([]hyper.ListAppend[int], subs)
		tickets := make([]*sched.Ticket, subs)
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < subs; i += 3 {
					sh := shapes[i]
					views[i] = hyper.NewListAppend[int]()
					opts := []sched.RunOption{
						sched.WithTenant(sh.tenant),
						sched.WithQoS(sh.class),
						sched.WithPriority(sh.prio),
					}
					if sh.budgeted {
						opts = append(opts, sched.WithTimeBudget(sh.budget))
					}
					i := i
					tk, err := rt.Submit(context.Background(), func(c *sched.Context) {
						atomic.AddInt32(&counts[i], 1)
						var walk func(c *sched.Context, lo, hi int)
						walk = func(c *sched.Context, lo, hi int) {
							if hi-lo == 1 {
								views[i].PushBack(c, lo)
								return
							}
							mid := (lo + hi) / 2
							c.Spawn(func(c *sched.Context) { walk(c, lo, mid) })
							walk(c, mid, hi)
							c.Sync()
						}
						walk(c, 0, n)
					}, opts...)
					if err != nil {
						addf("storm property: submit %d (%s/%v) rejected: %v", i, sh.tenant, sh.class, err)
						continue
					}
					tickets[i] = tk
				}
			}(g)
		}
		wg.Wait()
		for i, tk := range tickets {
			if tk == nil {
				continue
			}
			err := tk.Wait()
			c := atomic.LoadInt32(&counts[i])
			if c > 1 {
				addf("storm property: submission %d body ran %d times", i, c)
			}
			switch {
			case err == nil:
				if c != 1 {
					addf("storm property: submission %d settled clean but body ran %d times", i, c)
				} else if got := views[i].Value(); len(got) != n {
					addf("storm property: submission %d fold has %d elements, want %d", i, len(got), n)
				} else {
					for j, x := range got {
						if x != j {
							addf("storm property: submission %d serial order broken at %d: got %d", i, j, x)
							break
						}
					}
				}
			case errors.Is(err, sched.ErrDeadlineExceeded) || errors.Is(err, sched.ErrCanceled):
				if !shapes[i].budgeted {
					addf("storm property: unbudgeted submission %d cancelled: %v", i, err)
				}
			default:
				addf("storm property: submission %d failed with non-sentinel error: %v", i, err)
			}
		}
	}

	// Property 6: memory accounting under faults. Budgeted runs whose bodies
	// charge and refund in matched pairs must settle with a non-negative
	// per-run live-byte balance — a forced pool leak (PointRecycle) may
	// strand bytes as a positive residue, but a negative balance is a double
	// refund. Spurious budget trips (PointMemCharge) are legal and must
	// surface only as the budget sentinel; everything else is a finding. The
	// runtime-wide gauge must return to exactly zero once every run settles,
	// leaks included, because it counts frames by liveness, not by pooling.
	{
		const runs = 8
		for i := 0; i < runs; i++ {
			tk, err := rt.Submit(context.Background(), func(c *sched.Context) {
				pfor.ForGrain(c, 0, 512, 4, func(c *sched.Context, j int) {
					c.Charge(1 << 10)
					c.Refund(1 << 10)
				})
			}, sched.WithMemoryBudget(64<<10))
			if err != nil {
				addf("memory property: submit %d rejected: %v", i, err)
				continue
			}
			werr := tk.Wait()
			if werr != nil && !errors.Is(werr, sched.ErrMemoryBudget) {
				addf("memory property: run %d failed with non-sentinel error: %v", i, werr)
			}
			st := tk.Stats()
			if st.MemLiveBytes < 0 {
				addf("memory property: run %d settled with negative live memory %d B", i, st.MemLiveBytes)
			}
			if st.MemPeakBytes < 0 {
				addf("memory property: run %d reports negative peak memory %d B", i, st.MemPeakBytes)
			}
		}
		if live := rt.MemLiveBytes(); live != 0 {
			addf("memory property: runtime live gauge %d B after every run settled, want 0", live)
		}
	}
}
