// Package schedsan is the scheduler sanitizer: deterministic fault
// injection, runtime invariant checking, and stall watchdog support for the
// work-stealing runtime in internal/sched.
//
// The scheduler's hot paths — steal-half claim words, pointer-identity
// range-task reclaim, the park/wake producer fast path — are exactly the
// class of lock-free protocol that is only trustworthy under *controlled
// adversarial schedules*, not ordinary -race runs (see C11Tester and the
// Work Stealing Simulator papers in PAPERS.md): the rare interleavings that
// break such protocols occur once in millions of ordinary executions. This
// package makes those interleavings cheap to force and reproduce:
//
//   - A Plan is a seeded fault script: a small set of Rules, each attaching
//     a failure mode (forced failure, injected delay, dropped or duplicated
//     wakeup) to one protocol decision Point at a given rate. RandomPlan
//     derives a plan deterministically from a seed, so a failing seed is a
//     reproducible test case; Shrink reduces a failing plan to a minimal
//     fault script.
//   - An Injector compiles a Plan into per-worker Lanes. Each lane owns a
//     PRNG seeded from (plan seed, worker id), so the decision *sequence*
//     each worker sees is a pure function of the seed — the OS schedule
//     still varies, but the fault pattern does not.
//   - Options carries the sanitizer configuration the scheduler consumes:
//     the fault plan, whether continuous invariant checking is on, the
//     stall-watchdog threshold, and the violation/stall callbacks.
//
// The package deliberately imports nothing outside the standard library so
// both internal/deque and internal/sched can depend on it; the scheduler
// owns the injection sites, the invariant definitions, and the watchdog
// loop (internal/sched/sanitize.go) — this package owns the fault model.
package schedsan

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Point identifies one protocol decision point in the scheduler where a
// fault can be injected. The set mirrors the places the runtime makes a
// lock-free protocol decision: steal probes, batch-claim arbitration,
// park/wake, lazy-loop chunk peeling and range splitting, reducer view
// folds, and object-pool recycling.
type Point uint8

const (
	// PointSteal is a thief's single-item Steal: a forced failure makes the
	// steal report a lost race before its CAS.
	PointSteal Point = iota
	// PointBatchClaim is StealBatch's claim-word announcement: a forced
	// failure makes the batch report a contending claim, taking the
	// fall-back-to-Steal path.
	PointBatchClaim
	// PointBatchCAS is StealBatch's commit CAS on top: a forced failure
	// makes the batch release its claim and report a lost race after the
	// claim was visible to the owner.
	PointBatchCAS
	// PointBatchWindow is the interval during which a batch holds its claim:
	// a delay stretches the window in which the owner's PopBottom must back
	// off, and in which the claim/top state must stay coherent.
	PointBatchWindow
	// PointWake is a producer's wakeup of parked workers after publishing
	// stealable work: faults drop it, duplicate it, or delay it — the exact
	// perturbations a lost-wakeup bug is sensitive to.
	PointWake
	// PointPark is the window between a worker's last failed steal sweep and
	// its registration as parked: a delay stretches the classic
	// check-then-block race window against producers.
	PointPark
	// PointChunkPeel is the window after a lazy loop's owner republishes the
	// remainder range task and before it runs the peeled chunk: a delay
	// keeps the remainder exposed to thieves longer.
	PointChunkPeel
	// PointRangeSplit is a thief's halving of a freshly stolen range task: a
	// forced failure skips the split (legal — the thief runs the whole
	// range), exercising the no-split peel protocol under steal pressure.
	PointRangeSplit
	// PointViewFold is the reducer view fold at a sync: a delay stretches
	// the window between the last child deposit and the fold.
	PointViewFold
	// PointRecycle is task/frame pool recycling: a forced failure leaks the
	// object to the garbage collector instead (legal), exercising the
	// fresh-allocation paths and flushing ABA-style reuse assumptions.
	PointRecycle
	// PointInjectWake is the broadcast that announces a new root task in the
	// injection queue. It is never part of a random plan: dropping it is the
	// one fault that genuinely stalls the runtime, which is exactly what the
	// watchdog acceptance test needs (see Options.BreakInjectWake).
	PointInjectWake
	// PointMemCharge is the memory layer's budget check at a strand
	// boundary: a forced failure trips the budget spuriously, cancelling the
	// run with ErrMemoryBudget (legal — a budget cancel is an outcome every
	// budgeted caller must already handle, and the skip-but-join drain keeps
	// liveness). Only budget-armed runs ever reach the point, so the rule is
	// inert for ordinary work.
	PointMemCharge

	// NumPoints is the number of defined points.
	NumPoints
)

var pointNames = [NumPoints]string{
	"steal", "batch-claim", "batch-cas", "batch-window", "wake", "park",
	"chunk-peel", "range-split", "view-fold", "recycle",
	"inject-wake", "mem-charge",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("Point(%d)", uint8(p))
}

// Mode is what a Rule does when it fires at its Point.
type Mode uint8

const (
	// ModeFail forces the operation at the point to report failure (or to
	// skip an optional step), taking the protocol's fallback path.
	ModeFail Mode = iota
	// ModeDelay stretches the race window at the point: the strand sleeps a
	// random fraction of Rule.Delay (or yields repeatedly when Delay is 0).
	ModeDelay
	// ModeDrop swallows the action at the point entirely (wake delivery:
	// the signal is never sent).
	ModeDrop
	// ModeDup performs the action at the point twice (wake delivery: two
	// signals for one publication).
	ModeDup

	numModes
)

var modeNames = [numModes]string{"fail", "delay", "drop", "dup"}

func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Rule is one entry of a fault script: at Point, with Mode, fire either
// every Every-th opportunity (deterministic, when Every > 0) or with
// probability Rate per opportunity. Delay bounds the injected sleep for
// ModeDelay rules (0 means "yield the processor a few times").
type Rule struct {
	Point Point         `json:"point"`
	Mode  Mode          `json:"mode"`
	Rate  float64       `json:"rate,omitempty"`
	Every int64         `json:"every,omitempty"`
	Delay time.Duration `json:"delay_ns,omitempty"`
}

func (r Rule) String() string {
	s := fmt.Sprintf("%s/%s", r.Point, r.Mode)
	if r.Every > 0 {
		s += fmt.Sprintf(" every=%d", r.Every)
	} else {
		s += fmt.Sprintf(" rate=%.3f", r.Rate)
	}
	if r.Delay > 0 {
		s += fmt.Sprintf(" delay≤%s", r.Delay)
	}
	return s
}

// Plan is a complete fault script: the seed that derives all injection
// randomness plus the active rules. The zero Plan injects nothing.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

func (p Plan) String() string {
	b, _ := json.Marshal(p)
	return string(b)
}

// ruleMenu is the space RandomPlan draws from. Every entry is
// liveness-safe: forced failures only force legal fallback paths, drops are
// limited to the spawn-path wake (whose loss is progress-preserving — the
// producer still owns the published work; see DESIGN.md §4d), and delays
// are bounded. PointInjectWake is deliberately absent.
var ruleMenu = []func(rng *rand.Rand) Rule{
	func(r *rand.Rand) Rule { return Rule{Point: PointSteal, Mode: ModeFail, Rate: 0.05 + 0.45*r.Float64()} },
	func(r *rand.Rand) Rule {
		return Rule{Point: PointSteal, Mode: ModeDelay, Rate: 0.05 + 0.25*r.Float64(), Delay: time.Duration(r.Intn(50)) * time.Microsecond}
	},
	func(r *rand.Rand) Rule {
		return Rule{Point: PointBatchClaim, Mode: ModeFail, Rate: 0.1 + 0.7*r.Float64()}
	},
	func(r *rand.Rand) Rule {
		return Rule{Point: PointBatchCAS, Mode: ModeFail, Rate: 0.05 + 0.45*r.Float64()}
	},
	func(r *rand.Rand) Rule {
		return Rule{Point: PointBatchWindow, Mode: ModeDelay, Rate: 0.1 + 0.4*r.Float64(), Delay: time.Duration(1+r.Intn(20)) * time.Microsecond}
	},
	func(r *rand.Rand) Rule { return Rule{Point: PointWake, Mode: ModeDrop, Rate: 0.1 + 0.8*r.Float64()} },
	func(r *rand.Rand) Rule { return Rule{Point: PointWake, Mode: ModeDup, Rate: 0.1 + 0.4*r.Float64()} },
	func(r *rand.Rand) Rule {
		return Rule{Point: PointWake, Mode: ModeDelay, Rate: 0.1 + 0.3*r.Float64(), Delay: time.Duration(r.Intn(50)) * time.Microsecond}
	},
	func(r *rand.Rand) Rule {
		return Rule{Point: PointPark, Mode: ModeDelay, Rate: 0.2 + 0.6*r.Float64(), Delay: time.Duration(r.Intn(100)) * time.Microsecond}
	},
	func(r *rand.Rand) Rule {
		return Rule{Point: PointChunkPeel, Mode: ModeDelay, Rate: 0.05 + 0.25*r.Float64(), Delay: time.Duration(r.Intn(20)) * time.Microsecond}
	},
	func(r *rand.Rand) Rule {
		return Rule{Point: PointRangeSplit, Mode: ModeFail, Rate: 0.1 + 0.8*r.Float64()}
	},
	func(r *rand.Rand) Rule {
		return Rule{Point: PointViewFold, Mode: ModeDelay, Rate: 0.1 + 0.3*r.Float64(), Delay: time.Duration(r.Intn(20)) * time.Microsecond}
	},
	func(r *rand.Rand) Rule { return Rule{Point: PointRecycle, Mode: ModeFail, Rate: 0.1 + 0.8*r.Float64()} },
	// NOTE for corpus archaeology: changing this menu reshuffles which plan
	// RandomPlan derives from a given seed — the pinned corpus seeds still
	// run liveness-safe plans, they just cover different ones than when they
	// were minted (PR 8 added two steal-domain entries, PR 21 removed them).
	// cmd/schedfuzz's TestCorpusCoversMenu checks that seeds 1–24 still
	// cover every (point, mode) pair the menu can produce.
	// Memory fault (liveness-safe: a forced budget trip cancels the run with
	// ErrMemoryBudget, a legal outcome whose skip-but-join drain the cancel
	// layer already guarantees; inert for runs without a memory budget).
	func(r *rand.Rand) Rule {
		return Rule{Point: PointMemCharge, Mode: ModeFail, Rate: 0.01 + 0.2*r.Float64()}
	},
}

// RandomPlan derives a fault plan deterministically from seed: between one
// and five rules drawn (without point/mode duplication) from a menu of
// liveness-safe fault templates. The same seed always yields the same plan.
func RandomPlan(seed int64) Plan {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(5)
	p := Plan{Seed: seed}
	used := map[[2]uint8]bool{}
	for len(p.Rules) < n {
		r := ruleMenu[rng.Intn(len(ruleMenu))](rng)
		k := [2]uint8{uint8(r.Point), uint8(r.Mode)}
		if used[k] {
			continue
		}
		used[k] = true
		p.Rules = append(p.Rules, r)
	}
	return p
}

// Injector is a Plan compiled for execution: per-point rule indices plus
// per-rule fire counters. One Injector serves one Runtime; each worker gets
// its own Lane.
type Injector struct {
	plan    Plan
	byPoint [NumPoints][]int
	fired   []atomic.Int64 // per rule, total fires across all lanes
}

// NewInjector compiles a plan. An empty plan yields an injector whose lanes
// never fire.
func NewInjector(p Plan) *Injector {
	in := &Injector{plan: p, fired: make([]atomic.Int64, len(p.Rules))}
	for i, r := range p.Rules {
		if r.Point < NumPoints {
			in.byPoint[r.Point] = append(in.byPoint[r.Point], i)
		}
	}
	return in
}

// Plan returns the plan the injector was compiled from.
func (in *Injector) Plan() Plan { return in.plan }

// Counts reports how many times each rule fired, keyed by the rule's
// String. Use it to confirm a plan actually exercised its faults.
func (in *Injector) Counts() map[string]int64 {
	m := make(map[string]int64, len(in.plan.Rules))
	for i, r := range in.plan.Rules {
		m[r.String()] += in.fired[i].Load()
	}
	return m
}

// TotalFired reports the total number of fault injections across all rules
// and lanes.
func (in *Injector) TotalFired() int64 {
	var n int64
	for i := range in.fired {
		n += in.fired[i].Load()
	}
	return n
}

// Lane returns a decision lane for the given worker id, with its PRNG
// seeded from (plan seed, id). Worker lanes are normally used by a single
// goroutine, but every lane is safe for concurrent use (a mutex guards the
// PRNG), so the runtime can share one lane across producer call sites that
// have no worker identity.
func (in *Injector) Lane(id int) *Lane {
	return &Lane{
		in:  in,
		rng: rand.New(rand.NewSource(in.plan.Seed ^ (0x9e3779b97f4a7c * int64(id+1)))),
		seq: make([]int64, len(in.plan.Rules)),
	}
}

// Lane is one decision stream of an Injector. All methods are safe on a nil
// receiver (they report "no fault"), so the scheduler can hold nil lanes
// when the sanitizer is off.
type Lane struct {
	in  *Injector
	mu  sync.Mutex
	rng *rand.Rand
	seq []int64 // per-rule opportunity counters, for Every-based rules
}

// decide reports whether any rule at (p, mode) fires for this opportunity,
// and for ModeDelay rules returns the sampled delay.
func (l *Lane) decide(p Point, mode Mode) (fire bool, delay time.Duration) {
	rules := l.in.byPoint[p]
	if len(rules) == 0 {
		return false, 0
	}
	l.mu.Lock()
	for _, ri := range rules {
		r := &l.in.plan.Rules[ri]
		if r.Mode != mode {
			continue
		}
		hit := false
		if r.Every > 0 {
			l.seq[ri]++
			hit = l.seq[ri]%r.Every == 0
		} else if r.Rate > 0 {
			hit = l.rng.Float64() < r.Rate
		}
		if !hit {
			continue
		}
		l.in.fired[ri].Add(1)
		fire = true
		if mode == ModeDelay {
			d := r.Delay
			if d > 0 {
				d = time.Duration(1 + l.rng.Int63n(int64(d)))
			}
			if d > delay {
				delay = d
			}
		}
	}
	l.mu.Unlock()
	return fire, delay
}

// Fail reports whether a ModeFail rule fires at p for this opportunity.
func (l *Lane) Fail(p Point) bool {
	if l == nil {
		return false
	}
	f, _ := l.decide(p, ModeFail)
	return f
}

// Drop reports whether a ModeDrop rule fires at p for this opportunity.
func (l *Lane) Drop(p Point) bool {
	if l == nil {
		return false
	}
	f, _ := l.decide(p, ModeDrop)
	return f
}

// Dup reports whether a ModeDup rule fires at p for this opportunity.
func (l *Lane) Dup(p Point) bool {
	if l == nil {
		return false
	}
	f, _ := l.decide(p, ModeDup)
	return f
}

// Delay blocks the calling strand if a ModeDelay rule fires at p: a sleep
// of a random fraction of the rule's bound, or a burst of Gosched calls
// when the bound is zero.
func (l *Lane) Delay(p Point) {
	if l == nil {
		return
	}
	fire, d := l.decide(p, ModeDelay)
	if !fire {
		return
	}
	if d <= 0 {
		for i := 0; i < 8; i++ {
			runtime.Gosched()
		}
		return
	}
	time.Sleep(d)
}

// Report is one sanitizer finding: an invariant violation or a stall, with
// a short title and a preformatted diagnostic body (per-worker state, deque
// depths, counters, recent trace events).
type Report struct {
	// Kind is "invariant" or "stall".
	Kind string
	// Title is the one-line finding, e.g. the violated invariant.
	Title string
	// Body is the multi-line diagnostic dump.
	Body string
	// When is when the finding was produced.
	When time.Time
}

func (r *Report) String() string {
	return "schedsan " + r.Kind + ": " + r.Title + "\n" + r.Body
}

// Options configures the sanitizer for one Runtime (sched.WithSanitize).
type Options struct {
	// Plan is the fault script to inject. The zero Plan injects nothing —
	// useful for running only the invariant checker and watchdog.
	Plan Plan
	// Invariants enables continuous cross-worker accounting checks: join
	// counters never go negative, no duplicate reducer-view deposits,
	// tracked runs quiesce exactly (spawns vs. tasks run/skipped, live
	// frames drain to zero), workers never exit with work in their deques,
	// and shutdown strands nothing.
	Invariants bool
	// StallAfter enables the stall watchdog: when no worker makes progress
	// for at least this long while work is outstanding and every worker is
	// idle (hunting or parked), the watchdog emits a diagnostic dump,
	// increments Stats.Stalls, and rescues the runtime by re-broadcasting
	// the scheduler's wakeup. 0 disables the watchdog.
	StallAfter time.Duration
	// TraceTail is how many recent trace events per worker a stall dump
	// includes when the runtime's tracer is recording (default 16).
	TraceTail int
	// OnViolation, when non-nil, receives invariant-violation reports
	// instead of the default panic. A handler that returns lets the
	// computation continue (the fuzzer collects findings this way).
	OnViolation func(*Report)
	// OnStall, when non-nil, receives stall reports; the default writes the
	// dump to standard error. The rescue broadcast happens either way.
	OnStall func(*Report)
	// BreakInjectWake suppresses the broadcast that announces new root
	// tasks — a deliberately broken wakeup whose loss genuinely stalls the
	// runtime. Test-only: it exists so the watchdog's detection and rescue
	// path can be exercised deterministically.
	BreakInjectWake bool
}
