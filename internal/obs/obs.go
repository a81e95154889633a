// Package obs is the online observability layer over the runtime: it turns
// the per-run reports of sched.WithRunObserver into a live, queryable view —
// recent run records with online Cilkview scalability estimates, a run-
// latency histogram, and the HTTP introspection server (Handler) exposing
// Prometheus metrics, per-run reports, on-demand profiles, capture-on-demand
// Chrome traces, and the sanitizer's stall findings.
//
// The offline Cilkview (internal/cilkview) answers "how scalable is this
// program?" from a serial replay before deployment; this package answers the
// same question about the runs a live server is executing right now, using
// the work/span the scheduler measured during the parallel execution itself
// (internal/sched/obs.go). The burden estimate — the scheduling overhead the
// Cilk++ tool folds into its lower speedup bound — comes from measured
// scheduling behaviour: the run's steal count times the runtime's observed
// mean steal latency, charging every migration as if it lay on the critical
// path (pessimistic by construction; DESIGN.md §4e).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cilkgo/internal/cilkview"
	"cilkgo/internal/sched"
	"cilkgo/internal/trace"
)

// defaultKeep is how many completed runs a Registry retains by default.
const defaultKeep = 64

// Registry is the canonical sched.RunObserver: it tracks in-flight runs,
// retains the most recent completed run reports in a ring, and accumulates
// the run-latency histogram. Install it with sched.WithRunObserver (or the
// cilk facade's WithObserver) and serve it with Handler.
type Registry struct {
	mu     sync.Mutex
	live   map[int64]time.Time
	recent []sched.RunReport // ring, oldest first
	keep   int

	runs    int64 // completed runs, all time
	errRuns int64 // completed runs that returned an error

	latency *trace.LiveHistogram // run wall-clock latency

	// Serving-dimension aggregation, keyed by the submission identity the
	// RunReport carries (sched.Submit's WithQoS/WithTenant): per-class run
	// counts with latency and queue-wait histograms, and per-tenant run
	// counts with cumulative queue wait.
	classes map[string]*classAgg
	tenants map[string]*tenantAgg
}

// maxTenantAggs bounds the per-tenant map; once full, new tenant labels
// aggregate under "(other)" so a label-cardinality attack cannot grow the
// registry without bound.
const maxTenantAggs = 256

type classAgg struct {
	runs, errs int64
	latency    *trace.LiveHistogram // run wall-clock latency
	queueWait  *trace.LiveHistogram // root queue wait (RunReport.Queued)
}

type tenantAgg struct {
	runs, errs  int64
	queuedTotal time.Duration // cumulative queue wait across the tenant's runs
}

// ClassStats is the completed-run summary of one QoS class.
type ClassStats struct {
	Class      string
	Runs, Errs int64
	Latency    trace.Histogram
	QueueWait  trace.Histogram
}

// TenantStats is the completed-run summary of one tenant label. QueuedTotal
// is the tenant's cumulative root queue wait; QueuedTotal/Runs is its mean
// queueing delay.
type TenantStats struct {
	Tenant      string
	Runs, Errs  int64
	QueuedTotal time.Duration
}

// NewRegistry returns a Registry retaining the keep most recent completed
// runs (keep <= 0 selects the default of 64).
func NewRegistry(keep int) *Registry {
	if keep <= 0 {
		keep = defaultKeep
	}
	return &Registry{
		live:    make(map[int64]time.Time),
		keep:    keep,
		latency: trace.NewLiveHistogram(nil),
		classes: make(map[string]*classAgg),
		tenants: make(map[string]*tenantAgg),
	}
}

// RunStart implements sched.RunObserver.
func (r *Registry) RunStart(id int64, start time.Time) {
	r.mu.Lock()
	r.live[id] = start
	r.mu.Unlock()
}

// RunEnd implements sched.RunObserver.
func (r *Registry) RunEnd(rep sched.RunReport) {
	r.latency.Observe(rep.End.Sub(rep.Start))
	r.mu.Lock()
	delete(r.live, rep.ID)
	r.runs++
	if rep.Err != nil {
		r.errRuns++
	}
	if len(r.recent) >= r.keep {
		copy(r.recent, r.recent[1:])
		r.recent = r.recent[:len(r.recent)-1]
	}
	r.recent = append(r.recent, rep)

	cls := rep.Class.String()
	ca := r.classes[cls]
	if ca == nil {
		ca = &classAgg{latency: trace.NewLiveHistogram(nil), queueWait: trace.NewLiveHistogram(nil)}
		r.classes[cls] = ca
	}
	ca.runs++
	if rep.Err != nil {
		ca.errs++
	}
	ca.latency.Observe(rep.End.Sub(rep.Start))
	ca.queueWait.Observe(rep.Queued)

	tname := rep.Tenant
	ta := r.tenants[tname]
	if ta == nil {
		if len(r.tenants) >= maxTenantAggs {
			tname = "(other)"
		}
		if ta = r.tenants[tname]; ta == nil {
			ta = &tenantAgg{}
			r.tenants[tname] = ta
		}
	}
	ta.runs++
	if rep.Err != nil {
		ta.errs++
	}
	ta.queuedTotal += rep.Queued
	r.mu.Unlock()
}

// ClassStats returns per-QoS-class completed-run summaries, sorted by class
// name. Only classes that have completed at least one run appear.
func (r *Registry) ClassStats() []ClassStats {
	r.mu.Lock()
	out := make([]ClassStats, 0, len(r.classes))
	for name, ca := range r.classes {
		out = append(out, ClassStats{
			Class: name, Runs: ca.runs, Errs: ca.errs,
			Latency: ca.latency.Snapshot(), QueueWait: ca.queueWait.Snapshot(),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// TenantStats returns per-tenant completed-run summaries, sorted by tenant
// label (the unlabeled tenant appears as ""; overflow labels past the
// 256-tenant cap aggregate under "(other)").
func (r *Registry) TenantStats() []TenantStats {
	r.mu.Lock()
	out := make([]TenantStats, 0, len(r.tenants))
	for name, ta := range r.tenants {
		out = append(out, TenantStats{
			Tenant: name, Runs: ta.runs, Errs: ta.errs, QueuedTotal: ta.queuedTotal,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// LiveRun is one in-flight run.
type LiveRun struct {
	ID    int64
	Start time.Time
}

// Live returns the in-flight runs, oldest first.
func (r *Registry) Live() []LiveRun {
	r.mu.Lock()
	out := make([]LiveRun, 0, len(r.live))
	for id, s := range r.live {
		out = append(out, LiveRun{ID: id, Start: s})
	}
	r.mu.Unlock()
	for i := 1; i < len(out); i++ { // insertion sort: the set is small
		for j := i; j > 0 && out[j].Start.Before(out[j-1].Start); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Recent returns the retained completed run reports, oldest first.
func (r *Registry) Recent() []sched.RunReport {
	r.mu.Lock()
	out := append([]sched.RunReport(nil), r.recent...)
	r.mu.Unlock()
	return out
}

// Last returns the most recent completed run report, or false.
func (r *Registry) Last() (sched.RunReport, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recent) == 0 {
		return sched.RunReport{}, false
	}
	return r.recent[len(r.recent)-1], true
}

// Totals returns all-time completed and errored run counts.
func (r *Registry) Totals() (runs, errs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runs, r.errRuns
}

// RunLatency returns a snapshot of the run wall-clock latency histogram.
func (r *Registry) RunLatency() trace.Histogram { return r.latency.Snapshot() }

// ProcBound is the scalability estimate at one processor count: the
// Cilkview lower speedup estimate (greedy bound with burdened span) and the
// upper bound (min of the Work Law and Span Law).
type ProcBound struct {
	Procs    int     `json:"procs"`
	LowerEst float64 `json:"lower_est"`
	Upper    float64 `json:"upper"`
}

// Scalability is the online Cilkview report for one completed run.
type Scalability struct {
	Work time.Duration `json:"work_ns"`
	Span time.Duration `json:"span_ns"`
	// Wall is the run's wall-clock duration; Speedup is Work/Wall, the
	// run's realized speedup on the workers it actually used.
	Wall    time.Duration `json:"wall_ns"`
	Speedup float64       `json:"speedup"`
	// Parallelism is T1/T∞. BurdenedSpan adds the migration burden —
	// Steals × mean observed steal latency — to the span, and
	// BurdenedParallelism is T1/T∞ᵇ, the scalability the scheduler can
	// realistically deliver.
	Parallelism         float64       `json:"parallelism"`
	BurdenedSpan        time.Duration `json:"burdened_span_ns"`
	BurdenedParallelism float64       `json:"burdened_parallelism"`
	// Bounds tabulates the speedup envelope for 1..P workers.
	Bounds []ProcBound `json:"bounds"`
	// Verdict summarizes the run against the laws of §2: whether the
	// measured speedup respects the Work Law (≤ P) and the Span Law
	// (≤ T1/T∞), and whether parallelism is ample for the worker count.
	Verdict string `json:"verdict"`
}

// lawSlack absorbs clock granularity when checking the measured speedup
// against its theoretical ceilings: the laws hold for exact work and span,
// and the online clocks carry per-boundary measurement noise.
const lawSlack = 1.05

// Profile converts a run report into a cilkview.Profile, so the online path
// reuses the offline tool's speedup-bound math (Parallelism, SpeedupUpper,
// SpeedupLowerEstimate, Render). The burdened span adds the run's measured
// migration cost — Steals × meanSteal — to the span, charging every
// migration as if it lay on the critical path; Burden carries the same
// overhead amortized per spawn, which is what cilkview.Render tabulates.
func Profile(rep sched.RunReport, meanSteal time.Duration) cilkview.Profile {
	p := cilkview.Profile{
		Name:   fmt.Sprintf("run-%d", rep.ID),
		Work:   int64(rep.Stats.Work),
		Span:   int64(rep.Stats.Span),
		Spawns: rep.Stats.Spawns,
	}
	p.BurdenedSpan = p.Span + rep.Stats.Steals*int64(meanSteal)
	if burden := p.BurdenedSpan - p.Span; burden > 0 && p.Spawns > 0 {
		p.Burden = burden / p.Spawns
	}
	return p
}

// Scalable derives the online Cilkview estimate for one run report.
// meanSteal is the runtime's observed mean steal latency (zero when no
// steal was ever observed), workers the runtime's worker count.
func Scalable(rep sched.RunReport, workers int, meanSteal time.Duration) Scalability {
	s := Scalability{
		Work: rep.Stats.Work,
		Span: rep.Stats.Span,
		Wall: rep.End.Sub(rep.Start),
	}
	if s.Span <= 0 || s.Work <= 0 {
		s.Verdict = "no work/span data (run not observed or empty)"
		return s
	}
	p := Profile(rep, meanSteal)
	s.Parallelism = p.Parallelism()
	s.BurdenedSpan = time.Duration(p.BurdenedSpan)
	s.BurdenedParallelism = p.BurdenedParallelism()
	if s.Wall > 0 {
		s.Speedup = float64(s.Work) / float64(s.Wall)
	}
	if workers < 1 {
		workers = 1
	}
	for n := 1; n <= workers; n++ {
		s.Bounds = append(s.Bounds, ProcBound{
			Procs:    n,
			LowerEst: p.SpeedupLowerEstimate(n),
			Upper:    p.SpeedupUpper(n),
		})
	}
	s.Verdict = verdict(s, workers)
	return s
}

func verdict(s Scalability, workers int) string {
	var v string
	switch {
	case s.Parallelism >= 4*float64(workers):
		v = fmt.Sprintf("ample parallelism (%.1f× the %d workers)", s.Parallelism/float64(workers), workers)
	case s.Parallelism >= float64(workers):
		v = fmt.Sprintf("adequate parallelism (%.1f for %d workers)", s.Parallelism, workers)
	default:
		v = fmt.Sprintf("parallelism-limited (%.1f < %d workers; span dominates)", s.Parallelism, workers)
	}
	switch {
	case s.Speedup == 0:
		// No wall measurement; nothing to check the laws against.
	case s.Speedup > float64(workers)*lawSlack:
		v += fmt.Sprintf("; WORK-LAW VIOLATION: measured speedup %.2f > %d workers (clock skew?)", s.Speedup, workers)
	case s.Speedup > s.Parallelism*lawSlack:
		v += fmt.Sprintf("; SPAN-LAW VIOLATION: measured speedup %.2f > parallelism %.2f (clock skew?)", s.Speedup, s.Parallelism)
	default:
		v += fmt.Sprintf("; work/span laws hold (speedup %.2f ≤ min(%d, %.1f))", s.Speedup, workers, s.Parallelism)
	}
	return v
}
