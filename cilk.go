// Package cilkgo is a Go reproduction of the Cilk++ concurrency platform
// (C.E. Leiserson, "The Cilk++ concurrency platform", DAC 2009): a
// work-stealing fork-join runtime with provable performance bounds, the
// cilk_for parallel loop, reducer hyperobjects that mitigate races on
// nonlocal variables without locks, a Cilkscreen-style determinacy-race
// detector, and a Cilkview-style performance analyzer.
//
// This package is the user-facing facade. The three Cilk++ keywords map to:
//
//	cilk_spawn f(x)   →  ctx.Spawn(func(ctx *cilkgo.Context) { f(ctx, x) })
//	cilk_sync         →  ctx.Sync()
//	cilk_for          →  cilkgo.For(ctx, lo, hi, body)
//
// A minimal program:
//
//	rt := cilkgo.New()
//	defer rt.Shutdown()
//	tk, err := rt.Submit(ctx, func(ctx *cilkgo.Context) {
//		cilkgo.For(ctx, 0, n, func(ctx *cilkgo.Context, i int) {
//			a[i] = math.Sin(float64(i))
//		})
//	})
//	if err == nil {
//		err = tk.Wait()
//	}
//
// Runtime.Submit is the one entry point. Computations are context-aware:
// a run is abandoned cooperatively when its context is canceled or its
// deadline passes (Ticket.Wait returns ErrCanceled or
// ErrDeadlineExceeded), panics are quarantined per run (a *PanicError
// carrying every sibling panic; the runtime stays healthy), and
// Runtime.ShutdownDrain bounds how long in-flight work may outlive a
// shutdown. See the "API at a glance" table in README.md.
//
// Subsystem packages (importable directly for their full APIs):
//
//	internal/sched    the work-stealing scheduler (§3)
//	internal/pfor     cilk_for (§1–2)
//	internal/hyper    reducer hyperobjects (§5)
//	internal/race     the Cilkscreen race detector (§4)
//	internal/cilkview the performance analyzer (§3.1, Fig. 3)
//	internal/cilklock the mutex library (§1)
//	internal/sim      a deterministic simulator of the Cilk scheduler
//	internal/dag      the dag model of multithreading (§2)
//	internal/trace    per-worker event tracing of the parallel schedule
//	internal/schedsan the scheduler sanitizer: fault injection, invariants
package cilkgo

import (
	"expvar"
	"io"
	"net/http"
	"time"

	"cilkgo/internal/obs"
	"cilkgo/internal/pfor"
	"cilkgo/internal/sched"
	"cilkgo/internal/schedsan"
	"cilkgo/internal/trace"
)

// Core runtime types, re-exported from internal/sched.
type (
	// Runtime is a work-stealing scheduler instance.
	Runtime = sched.Runtime
	// Context is the per-strand handle passed through a computation;
	// Context.Spawn and Context.Sync are cilk_spawn and cilk_sync.
	Context = sched.Context
	// Option configures New.
	Option = sched.Option
	// Stats reports scheduler counters (spawns, steals, frame depths).
	Stats = sched.Stats
	// PanicError reports the panics quarantined during a computation: the
	// first panic cancels the rest of the run, and every captured sibling
	// panic is collected in PanicError.All.
	PanicError = sched.PanicError
	// Panic is one quarantined panic (value + stack) inside a PanicError.
	Panic = sched.Panic
	// Tracer is the per-worker event tracer installed by the Tracing
	// option; retrieve it with Runtime.Tracer, bracket a recording window
	// with Start/Stop, and feed the resulting Trace to WriteChromeTrace or
	// Summarize.
	Tracer = trace.Tracer
	// Trace is a drained recording window: per-worker event timelines.
	Trace = trace.Trace
	// TraceProfile is the derived view of a Trace — worker utilization,
	// steal latencies, and the live-frames high-water series.
	TraceProfile = trace.Profile
	// SanitizeOptions configures the scheduler sanitizer installed by
	// WithSanitize: the fault-injection plan, invariant checking, the stall
	// watchdog, and the violation/stall report sinks.
	SanitizeOptions = schedsan.Options
	// SanitizePlan is a deterministic, JSON-serializable fault schedule: a
	// seed plus rules saying which protocol points fail, stall, drop, or
	// duplicate, and how often. The same plan replays the same faults.
	SanitizePlan = schedsan.Plan
	// SanitizeRule is one (point, mode, rate, delay) entry of a SanitizePlan.
	SanitizeRule = schedsan.Rule
	// SanitizeReport is a structured invariant-violation or stall report,
	// carrying a runtime state dump naming each worker's state, deque depth,
	// and the recent trace tail.
	SanitizeReport = schedsan.Report
	// Observer is the run registry installed by WithObserver: it receives
	// every run's online Cilkview report (work, span, per-run stats) and
	// retains the recent ones for DebugHandler's endpoints.
	Observer = obs.Registry
	// RunReport is one observed run's terminal record: wall times, per-run
	// Stats including the online Work (T1) and Span (T∞) measured during
	// the parallel execution, and the run's error.
	RunReport = sched.RunReport
)

// Sentinel errors of the runtime's robustness layer, re-exported from
// internal/sched. Each also matches its context counterpart under
// errors.Is: errors.Is(ErrCanceled, context.Canceled) and
// errors.Is(ErrDeadlineExceeded, context.DeadlineExceeded) hold.
var (
	// ErrCanceled reports a computation abandoned because its context was
	// canceled: returned by Runtime.Submit for a context already done, and
	// by Ticket.Wait for one canceled in flight.
	ErrCanceled = sched.ErrCanceled
	// ErrDeadlineExceeded reports a computation abandoned because its
	// context's deadline (or its WithTimeBudget) passed.
	ErrDeadlineExceeded = sched.ErrDeadlineExceeded
	// ErrShutdown is returned by Runtime.Submit on a runtime that has been
	// shut down, and by Ticket.Wait for in-flight runs canceled at
	// ShutdownDrain's deadline.
	ErrShutdown = sched.ErrShutdown
)

// New creates a runtime with one worker per processor (override with
// WithWorkers) and starts its workers.
func New(opts ...Option) *Runtime { return sched.New(opts...) }

// WithWorkers sets the number of workers.
func WithWorkers(n int) Option { return sched.WithWorkers(n) }

// WithSerialElision makes the runtime execute programs as their serial
// elisions, as the race detector and profiler require.
func WithSerialElision() Option { return sched.WithSerialElision() }

// WithStealSeed makes the schedule's random victim selection reproducible;
// it seeds nothing else.
func WithStealSeed(seed int64) Option { return sched.WithStealSeed(seed) }

// WithTracing equips the runtime with low-overhead per-worker event tracing
// of the parallel schedule: task start/end, spawns, steal attempts and
// successes (with victim ids), idle hunting, parking, and — on cancelled or
// panicking runs — task skips and quarantined panics. The tracer starts
// disabled — until Runtime.Tracer().Start() is called every
// instrumentation site costs a single atomic load and branch.
//
//	rt := cilkgo.New(cilkgo.WithTracing())
//	rt.Tracer().Start()
//	tk, _ := rt.Submit(ctx, fn)
//	tk.Wait()
//	t := rt.Tracer().Stop()
//	cilkgo.WriteChromeTrace(f, t)      // view in Perfetto / chrome://tracing
//	fmt.Print(cilkgo.Summarize(t).Render())
func WithTracing(opts ...sched.TraceOption) Option { return sched.WithTracing(opts...) }

// WithTraceCapacity sets the per-worker trace ring-buffer capacity in
// events (default 65536; oldest events are overwritten on overflow).
func WithTraceCapacity(events int) sched.TraceOption { return trace.Capacity(events) }

// WithSanitize arms the scheduler sanitizer on a parallel runtime: seeded
// fault injection at the steal/claim/park/wake/split/fold/recycle protocol
// points, runtime invariant checking (join counters, unique view deposits,
// drain completeness), and a stall watchdog that files a diagnostic report
// and bumps Stats.Stalls when outstanding work stops making progress.
// Intended for tests and the cmd/schedfuzz fuzzer; a runtime without this
// option pays only nil-pointer gates on the affected paths.
//
//	plan := cilkgo.RandomFaultPlan(seed)
//	rt := cilkgo.New(cilkgo.WithSanitize(cilkgo.SanitizeOptions{
//		Plan:       plan,
//		Invariants: true,
//		StallAfter: 2 * time.Second,
//	}))
func WithSanitize(o SanitizeOptions) Option { return sched.WithSanitize(o) }

// RandomFaultPlan derives a random liveness-safe fault schedule from a
// seed, as the schedule fuzzer does: same seed, same plan, same faults.
func RandomFaultPlan(seed int64) SanitizePlan { return schedsan.RandomPlan(seed) }

// Serving layer (see Runtime.Submit in internal/sched): the submission API
// plus its per-run options, QoS classes, admission control, and load
// reporting.
//
//	tk, err := rt.Submit(ctx, fn,
//		cilkgo.WithTenant("acme"), cilkgo.WithQoS(cilkgo.QoSInteractive),
//		cilkgo.WithTimeBudget(200*time.Millisecond))
//	if err != nil { /* ErrAdmission / ErrQuota / ErrShutdown: shed load */ }
//	err = tk.Wait()
//	st := tk.Stats()
type (
	// Ticket is the handle to one submitted computation: await it with
	// Wait/Done, then read Err, Stats, and QueueLatency.
	Ticket = sched.Ticket
	// RunOption configures one Submit call (WithQoS, WithTenant,
	// WithPriority, WithTimeBudget, WithMemoryBudget).
	RunOption = sched.RunOption
	// QoSClass is a submission's quality-of-service class; it sets the
	// weighted-fair rate its root is picked up at under backlog.
	QoSClass = sched.QoSClass
	// AdmissionConfig arms admission control (WithAdmission): global
	// queue/run/memory limits, soft/hard memory watermarks for pressure
	// shedding, plus per-tenant Quotas.
	AdmissionConfig = sched.AdmissionConfig
	// Quota bounds one tenant's queued roots, in-flight runs, and declared
	// memory.
	Quota = sched.Quota
	// LoadReport is Runtime.LoadReport's backpressure snapshot: queue depths
	// by QoS class, running roots, parked workers, admission counters, and
	// per-tenant load.
	LoadReport = sched.LoadReport
	// TenantLoad is one tenant's slice of a LoadReport.
	TenantLoad = sched.TenantLoad
)

// QoS classes, in decreasing pickup weight (8:4:1 under backlog).
const (
	QoSInteractive = sched.QoSInteractive
	QoSBatch       = sched.QoSBatch
	QoSBestEffort  = sched.QoSBestEffort
)

// Admission sentinels returned by Runtime.Submit (match with errors.Is).
var (
	// ErrAdmission reports the runtime as a whole is at capacity.
	ErrAdmission = sched.ErrAdmission
	// ErrQuota reports the submitting tenant is over its own quota.
	ErrQuota = sched.ErrQuota
	// ErrMemoryBudget is a Ticket.Wait sentinel: the run's accounted live
	// memory (activation frames plus Context.Charge declarations) exceeded
	// its WithMemoryBudget, or the runtime shed it above a hard memory
	// watermark; the computation was cancelled skip-but-join.
	ErrMemoryBudget = sched.ErrMemoryBudget
)

// ParseQoS maps a class name ("interactive", "batch", "best-effort") to its
// QoSClass; the second result reports whether the name was recognized.
func ParseQoS(s string) (QoSClass, bool) { return sched.ParseQoS(s) }

// WithStats does nothing: every run's Ticket.Stats covers exactly its
// computation.
//
// Deprecated: per-run accounting is always on; drop the option.
func WithStats() RunOption { return sched.WithStats() }

// WithQoS assigns the run's QoS class (default QoSBatch).
func WithQoS(q QoSClass) RunOption { return sched.WithQoS(q) }

// WithTenant labels the run with a tenant identity for quotas and
// per-tenant accounting.
func WithTenant(name string) RunOption { return sched.WithTenant(name) }

// WithPriority orders the run's root within its QoS class's queue (higher
// first; default 0).
func WithPriority(p int) RunOption { return sched.WithPriority(p) }

// WithTimeBudget bounds the run's wall-clock lifetime, queueing included;
// past it the Ticket reports ErrDeadlineExceeded.
func WithTimeBudget(d time.Duration) RunOption { return sched.WithTimeBudget(d) }

// WithMemoryBudget declares the run's estimated peak memory use — charged
// against admission MaxMemory limits for the run's lifetime — and enforces
// it: the runtime accounts the run's live activation frames plus its
// Context.Charge/Refund declarations, and a run whose live bytes exceed the
// budget is cancelled with ErrMemoryBudget at the next spawn, task-start, or
// loop-chunk boundary. Ticket.Stats reports the run's MemLiveBytes and
// MemPeakBytes.
func WithMemoryBudget(bytes int64) RunOption { return sched.WithMemoryBudget(bytes) }

// MemReport is Runtime.MemReport's snapshot of the memory-pressure picture:
// live accounted bytes against the soft/hard watermarks, enforcement
// counters, and per-tenant in-flight charges and peak EWMAs. Served as JSON
// on DebugHandler's /debug/cilk/mem.
type MemReport = sched.MemReport

// WithAdmission arms admission control: Submit rejects with ErrAdmission /
// ErrQuota instead of queueing unboundedly.
func WithAdmission(cfg AdmissionConfig) Option { return sched.WithAdmission(cfg) }

// WriteChromeTrace writes a drained trace as Chrome trace-event JSON, one
// track per worker, viewable in Perfetto or chrome://tracing.
func WriteChromeTrace(w io.Writer, t *Trace) error { return trace.WriteChrome(w, t) }

// Summarize derives the utilization / steal-latency / live-frames profile
// of a drained trace; its Render method formats an ASCII report.
func Summarize(t *Trace) *TraceProfile { return trace.BuildProfile(t, 60) }

// PublishExpvar publishes rt.Metrics() as the expvar variable name, so a
// long-running server exposes scheduler counters on /debug/vars.
func PublishExpvar(name string, rt *Runtime) {
	expvar.Publish(name, expvar.Func(func() any { return rt.Metrics() }))
}

// NewObserver returns an Observer retaining the keep most recent completed
// runs (keep <= 0 selects a default of 64). Install it with WithObserver.
func NewObserver(keep int) *Observer { return obs.NewRegistry(keep) }

// WithObserver installs o as the runtime's run observer and arms the online
// Cilkview clocks: every run's work (T1) and span (T∞) are measured during
// the parallel execution itself — per-strand clocks aggregated at
// spawn/sync boundaries — and reported to o, together with the run's Stats,
// and the runtime's live steal-latency and park-to-wake histograms begin
// recording. A runtime without an observer pays one nil check per spawn and
// sync; with one, an un-stolen spawn+sync pair costs three monotonic clock
// reads and plain per-worker accumulation, no shared write.
//
//	reg := cilkgo.NewObserver(0)
//	rt := cilkgo.New(cilkgo.WithObserver(reg), cilkgo.WithTracing())
//	http.Handle("/", cilkgo.DebugHandler(rt))
func WithObserver(o *Observer) Option { return sched.WithRunObserver(o) }

// DebugHandler returns the runtime's HTTP introspection server: Prometheus
// metrics on /metrics, live and recent runs with online scalability
// estimates on /debug/cilk/runs, a Cilkview parallelism profile on
// /debug/cilk/profile, capture-on-demand Chrome traces on /debug/cilk/trace
// (requires WithTracing), the sanitizer's stall findings on
// /debug/cilk/stalls, the serving load report on /debug/cilk/load, and the
// memory report (live bytes, watermarks, tenant EWMAs) on /debug/cilk/mem.
// Mount it on any mux; run-level endpoints require WithObserver.
func DebugHandler(rt *Runtime) http.Handler { return obs.Handler(rt) }

// For executes body(ctx, i) for every i in [lo, hi) as a cilk_for loop:
// divide-and-conquer parallel recursion over the iteration space with an
// automatic grain size, returning only when all iterations complete.
func For(ctx *Context, lo, hi int, body func(ctx *Context, i int)) {
	pfor.For(ctx, lo, hi, body)
}

// ForGrain is For with an explicit grain size (iterations per serial chunk).
func ForGrain(ctx *Context, lo, hi, grain int, body func(ctx *Context, i int)) {
	pfor.ForGrain(ctx, lo, hi, grain, body)
}

// ForRange is the range form of For, for hot loops: body(ctx, l, h) runs
// once per serial chunk of at most one automatic grain and executes
// iterations [l, h) itself. The chunks are disjoint and cover [lo, hi)
// exactly once; their boundaries depend on the schedule, so per-chunk
// floating-point accumulations re-associate from run to run.
func ForRange(ctx *Context, lo, hi int, body func(ctx *Context, l, h int)) {
	pfor.ForRange(ctx, lo, hi, body)
}

// Each runs body over every element of s in parallel.
func Each[T any](ctx *Context, s []T, body func(ctx *Context, i int, v *T)) {
	pfor.Each(ctx, s, body)
}

// For2D executes body over [lo1,hi1) × [lo2,hi2) in parallel.
func For2D(ctx *Context, lo1, hi1, lo2, hi2 int, body func(ctx *Context, i, j int)) {
	pfor.For2D(ctx, lo1, hi1, lo2, hi2, body)
}
