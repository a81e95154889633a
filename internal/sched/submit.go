package sched

// This file is the canonical submission API: Submit hands the runtime a root
// computation plus per-run options (stats, QoS class, priority, tenant
// label, time/memory budget) and returns a *Ticket the caller awaits. The
// pre-redesign entry points Run/RunCtx/RunWithStats/RunWithStatsCtx are thin
// wrappers over the same path (see their Deprecated notes).
//
// Submission-time failures — a canceled context, a shut-down runtime, an
// admission or quota rejection — are returned by Submit itself and never
// create a run; the run's own outcome (completion, cancellation, quarantined
// panic) is what Ticket.Wait returns.
//
// Wake guarantee (the injected-root lost-wakeup fix): the enqueue of a root
// into its lane, the rt.injected increment, and the cond.Signal all happen
// while holding rt.mu, and a parking worker re-checks rt.injected under the
// same mutex before it Waits. So for every queued root, either some worker
// observed rt.injected > 0 on its pre-park re-check (and goes back to
// sweeping), or every would-be parker was blocked on rt.mu until after the
// Signal was issued with at least that root queued — a signal that, by the
// condition-variable contract, wakes a waiter if one exists. Spawn-path
// wakes may still be dropped (benign; see stealableWork); the root-injection
// wake is the one enqueue whose producer will not execute the work itself,
// and this pairing makes it unloseable. schedsan's Options.BreakInjectWake
// suppresses exactly this Signal to prove the stall watchdog notices.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Admission sentinels. Both are submission-time rejections: no run is
// created, nothing is queued, and the caller should shed or retry later.
// Submit wraps them with detail; match with errors.Is.
var (
	// ErrAdmission reports that the runtime as a whole is at capacity
	// (AdmissionConfig.MaxQueued/MaxActive/MaxMemory).
	ErrAdmission = errors.New("sched: admission refused: runtime at capacity")
	// ErrQuota reports that the submitting tenant is over its own quota.
	ErrQuota = errors.New("sched: admission refused: tenant over quota")
)

// submitCfg collects the per-run options of one Submit call.
type submitCfg struct {
	track      bool
	qos        QoSClass
	tenant     string
	priority   int
	timeBudget time.Duration
	memory     int64
}

// RunOption configures one Submit call.
type RunOption func(*submitCfg)

// WithStats arms per-computation accounting: the Ticket's Stats covers
// exactly this computation — its spawns, tasks, steals of its tasks — so
// concurrent submissions sharing the workers can be told apart. Costs a few
// per-run atomic increments; without it (and without a RunObserver) the
// Ticket's Stats is zero.
func WithStats() RunOption {
	return func(sc *submitCfg) { sc.track = true }
}

// WithQoS assigns the run's quality-of-service class (default QoSBatch),
// which sets the rate its root is picked up at under backlog — see the DRR
// weights in inject.go. An out-of-range class falls back to QoSBatch.
func WithQoS(q QoSClass) RunOption {
	return func(sc *submitCfg) {
		if q >= numQoS {
			q = QoSBatch
		}
		sc.qos = q
	}
}

// WithTenant labels the run with a tenant identity: quotas (WithAdmission),
// per-tenant load accounting (LoadReport), observer reports, and lane
// affinity (a tenant's roots are hashed to a stable lane) all key off it.
func WithTenant(name string) RunOption {
	return func(sc *submitCfg) { sc.tenant = name }
}

// WithPriority orders a run's root within its QoS class's queue: higher
// priorities are picked up first, equal priorities keep arrival order. The
// default is 0. Priority never crosses classes — a best-effort root with
// priority 100 still waits behind the interactive class's DRR share.
func WithPriority(p int) RunOption {
	return func(sc *submitCfg) { sc.priority = p }
}

// WithTimeBudget bounds the run's wall-clock lifetime, queueing included:
// after d the run is cooperatively canceled and the Ticket reports
// ErrDeadlineExceeded. Equivalent to submitting under a context with that
// timeout, without the caller having to manage the cancel.
func WithTimeBudget(d time.Duration) RunOption {
	return func(sc *submitCfg) { sc.timeBudget = d }
}

// WithMemoryBudget declares and enforces the run's peak memory in bytes. At
// admission the declared estimate is charged against AdmissionConfig/Quota
// MaxMemory for the run's lifetime. At execution it is a hard budget: the
// runtime meters the run's live memory — activation frames (including
// queued, not-yet-run spawns) plus the program's own Context.Charge
// declarations — at every spawn, task-start, and chunk boundary, and a run
// that exceeds the budget is cooperatively cancelled with ErrMemoryBudget
// (skip-but-join: running strands finish their grain, pending work is
// abandoned but still joins). A budget implies per-run accounting, as if
// WithStats were also given; Ticket.Stats().MemPeakBytes reports the
// measured high-water mark (Cilkmem's "don't admit work you can't bound"
// posture, now measured rather than honor-system).
func WithMemoryBudget(bytes int64) RunOption {
	return func(sc *submitCfg) { sc.memory = bytes }
}

// Ticket is the handle to one submitted computation. Await it with Wait (or
// select on Done and then call Err/Stats); a Ticket may be awaited from any
// goroutine and any number of times.
type Ticket struct {
	rt *Runtime
	rs *runState

	once  sync.Once
	stats Stats
	err   error
}

// Done returns a channel closed when the computation has completed or been
// abandoned — including everything it spawned.
func (tk *Ticket) Done() <-chan struct{} { return tk.rs.done }

// Wait blocks until the computation completes and returns its error: nil, a
// cancellation sentinel (ErrCanceled, ErrDeadlineExceeded, ErrShutdown), or
// a quarantined *PanicError.
func (tk *Ticket) Wait() error {
	<-tk.rs.done
	tk.settle()
	return tk.err
}

// Err returns the computation's error without blocking: nil both while the
// run is still in flight and when it completed cleanly (use Done or Wait to
// distinguish).
func (tk *Ticket) Err() error {
	select {
	case <-tk.rs.done:
		tk.settle()
		return tk.err
	default:
		return nil
	}
}

// Stats blocks until the computation completes and returns its per-run
// Stats snapshot. Zero unless the run was submitted WithStats or the
// runtime carries a RunObserver.
func (tk *Ticket) Stats() Stats {
	<-tk.rs.done
	tk.settle()
	return tk.stats
}

// ID returns the run's id, matching trace-event and observer attribution.
func (tk *Ticket) ID() int64 { return tk.rs.id }

// Tenant returns the tenant label the run was submitted under ("" if none).
func (tk *Ticket) Tenant() string { return tk.rs.tenant }

// Class returns the run's QoS class.
func (tk *Ticket) Class() QoSClass { return tk.rs.qos }

// QueueLatency returns how long the root waited in its injection lane
// before a worker picked it up, or 0 while it is still queued (and always 0
// in serial-elision mode, where there is no queue).
func (tk *Ticket) QueueLatency() time.Duration { return tk.rs.queueLatency() }

// settle freezes the ticket's terminal stats and error, once.
func (tk *Ticket) settle() {
	tk.once.Do(func() {
		tk.rt.sanRunQuiescence(tk.rs)
		tk.stats = tk.rs.snapshot()
		tk.err = tk.rs.err()
	})
}

// settleWith prefills the terminal state (serial elision completes inline).
func (tk *Ticket) settleWith(stats Stats, err error) {
	tk.once.Do(func() {
		tk.stats, tk.err = stats, err
	})
}

// Submit enqueues fn as the root of a fork-join computation and returns a
// Ticket for it. With default options it is Run's exact behavior split into
// its two halves: Submit(ctx, fn) followed by Ticket.Wait is
// RunCtx(ctx, fn) — same stats, same reducer fold order, same sentinel
// errors. Submit returns an error only for submission-time failures: a
// context already done (its mapped sentinel), a shut-down runtime
// (ErrShutdown), or an admission rejection (ErrAdmission/ErrQuota, with no
// run created); every outcome of a successfully submitted run is reported
// by the Ticket. Submit may be called concurrently from any number of
// goroutines.
func (rt *Runtime) Submit(ctx context.Context, fn func(*Context), opts ...RunOption) (*Ticket, error) {
	sc := submitCfg{qos: QoSBatch}
	for _, o := range opts {
		o(&sc)
	}
	return rt.submit(ctx, fn, sc)
}

func (rt *Runtime) submit(ctx context.Context, fn func(*Context), sc submitCfg) (*Ticket, error) {
	if err := ctx.Err(); err != nil {
		return nil, mapCtxErr(err)
	}
	// Memory watermarks (see memory.go): the live gauge is read once per
	// submission, only when a watermark is configured. Above the hard
	// watermark the most out-of-profile best-effort run is shed before this
	// submission is even considered; above the soft one, admit itself turns
	// defensive (best-effort rejected, declarations distrusted).
	var liveBytes int64
	if rt.adm.memWatermarksArmed() {
		liveBytes = rt.MemLiveBytes()
		rt.shedForMemory(liveBytes)
	}
	charged, err := rt.adm.admit(sc.tenant, sc.qos, sc.memory, liveBytes)
	if err != nil {
		return nil, err
	}
	rs := &runState{
		id: rt.runIDs.Add(1), rt: rt, done: make(chan struct{}),
		tenant: sc.tenant, qos: sc.qos, prio: sc.priority, memEst: sc.memory,
		memAdm: charged, memBudget: sc.memory,
	}
	obs := rt.cfg.observer
	if sc.track || obs != nil || sc.memory > 0 {
		// Observation implies per-run accounting: the observer's report
		// carries the run's Stats (spawns, steals, …) alongside work/span.
		// One cell per worker keeps the hot counters uncontended; the cells
		// are summed at quiescence and on snapshot reads. A memory budget
		// implies accounting too — enforcement needs the live-byte shards.
		rs.stats = newRunCounters(len(rt.workers))
	}
	if obs != nil {
		rs.clock = &runClock{}
		rs.start = time.Now()
		obs.RunStart(rs.id, rs.start)
	}
	var budgetCancel context.CancelFunc
	if sc.timeBudget > 0 {
		ctx, budgetCancel = context.WithTimeout(ctx, sc.timeBudget)
	}

	if rt.cfg.serial {
		stop := rs.watch(ctx)
		err := rt.runSerial(fn, rs)
		stop()
		if budgetCancel != nil {
			budgetCancel()
		}
		rs.release()
		if cl := rs.clock; cl != nil {
			// The serial elision is one strand: work and span are both its
			// wall-clock duration (T1 = T∞ by definition).
			d := int64(time.Since(rs.start))
			cl.work.Store(d)
			cl.span.Store(d)
		}
		snap := rs.snapshot()
		if obs != nil {
			obs.RunEnd(rt.report(rs, snap, err))
		}
		tk := &Ticket{rt: rt, rs: rs}
		tk.settleWith(snap, err)
		close(rs.done)
		return tk, nil
	}

	// The root task rides inside its frame like any spawned child: one shared
	// allocation (Submit is off the spawn fast path, so the per-worker
	// freelists are not used here).
	root := newFrameShared(nil, rs, 0, 0)
	root.t.fn = fn
	t := &root.t
	rs.enqNs = rt.nanots()
	// Install the context watcher (and fold in the time-budget cancel)
	// before the root becomes visible to workers: rs.stop must be set before
	// any worker can reach finish(), which releases it.
	stop := rs.watch(ctx)
	if budgetCancel != nil {
		watchStop := stop
		stop = func() { watchStop(); budgetCancel() }
	}
	rs.stop = stop

	lane := rt.laneFor(rs.tenant)

	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		rs.release()
		freeFrameShared(root)
		if obs != nil {
			obs.RunEnd(rt.report(rs, Stats{}, ErrShutdown))
		}
		return nil, ErrShutdown
	}
	rt.activeRoots++
	rt.active[rs] = struct{}{}
	lane.push(t, rs.qos, rs.prio)
	rt.injected.Add(1)
	rt.queuedByClass[rs.qos].Add(1)
	if s := rt.san; s != nil && s.opts.BreakInjectWake {
		// Deliberately broken root announcement (test-only): the new work is
		// visible in the lane and rt.injected but no parked worker is told.
		// This is the one fault that genuinely stalls the runtime — the
		// watchdog acceptance tests use it to exercise detection and rescue.
	} else {
		rt.cond.Signal()
	}
	rt.mu.Unlock()
	return &Ticket{rt: rt, rs: rs}, nil
}

// report builds the observer's terminal record for rs.
func (rt *Runtime) report(rs *runState, snap Stats, err error) RunReport {
	return RunReport{
		ID: rs.id, Start: rs.start, End: time.Now(), Stats: snap, Err: err,
		Tenant: rs.tenant, Class: rs.qos, Queued: rs.queueLatency(),
	}
}

// Admission control. A runtime always carries an admission state (it is the
// per-tenant load accounting behind LoadReport); WithAdmission additionally
// arms the limits. The state machine per run is
//
//	admit (Submit):   queued++          — reject instead if a limit would be
//	                                      exceeded; a rejected Submit leaves
//	                                      no trace beyond the counters
//	picked (pickup):  queued--, running++
//	release (finish): running--          (or queued-- if never picked up:
//	                                      serial elision, shut-down runtime)
//
// Memory is charged at admit and returned at release. A queued root whose
// context is canceled holds its queue slot until pickup — the skip-but-join
// drain is what unwinds it — so MaxQueued bounds lane occupancy exactly.
// The admission mutex is leaf-level: it is never held while acquiring rt.mu
// or a lane mutex.

// Quota bounds one tenant's use of the runtime. Zero-valued fields are
// unlimited.
type Quota struct {
	// MaxQueued bounds the tenant's roots waiting in injection lanes.
	MaxQueued int
	// MaxActive bounds the tenant's in-flight runs (queued + running).
	MaxActive int
	// MaxMemory bounds the sum of the tenant's in-flight declared
	// WithMemoryBudget estimates, in bytes.
	MaxMemory int64
}

// AdmissionConfig arms admission control (WithAdmission): global limits plus
// per-tenant quotas. Zero-valued fields are unlimited.
type AdmissionConfig struct {
	// MaxQueued, MaxActive, and MaxMemory bound the whole runtime, all
	// tenants together; exceeding them rejects with ErrAdmission.
	MaxQueued int
	MaxActive int
	MaxMemory int64
	// DefaultQuota applies to every tenant without an explicit entry in
	// Tenants (including the unlabeled "" tenant); exceeding a tenant quota
	// rejects with ErrQuota.
	DefaultQuota Quota
	// Tenants maps tenant labels to their quotas.
	Tenants map[string]Quota

	// SoftMemoryWatermark and HardMemoryWatermark arm runtime-wide memory
	// pressure degradation (see memory.go), keyed off the measured live
	// gauge Runtime.MemLiveBytes — not declarations. Above the soft
	// watermark, best-effort submissions are rejected with ErrAdmission and
	// every other submission is charged max(declared estimate, the tenant's
	// EWMA of measured run peaks) — pressure is when declared-too-small
	// estimates hurt, so admission stops trusting them. Above the hard
	// watermark, each submission additionally cancels (ErrMemoryBudget) the
	// best-effort run whose live memory most exceeds its tenant's EWMA.
	// Zero disables either watermark.
	SoftMemoryWatermark int64
	HardMemoryWatermark int64
}

func (cfg *AdmissionConfig) quotaFor(tenant string) Quota {
	if q, ok := cfg.Tenants[tenant]; ok {
		return q
	}
	return cfg.DefaultQuota
}

// WithAdmission arms admission control with the given limits and quotas.
// Without this option Submit never rejects (the admission state still
// tracks per-tenant load for LoadReport).
func WithAdmission(cfg AdmissionConfig) Option {
	return func(c *config) { c.admission = &cfg }
}

// maxTenantEntries bounds the admission map: once past it, fully idle
// tenant entries are pruned at release (their cumulative counters are
// dropped; the runtime-wide admitted/rejected totals stay exact).
const maxTenantEntries = 256

type admission struct {
	mu            sync.Mutex
	cfg           *AdmissionConfig // nil = accounting only, never rejects
	queued        int
	running       int
	memory        int64
	tenants       map[string]*tenantState
	admitted      int64
	rejectedLoad  int64
	rejectedQuota int64
	// rejectedMemory counts best-effort submissions shed because the live
	// gauge was above SoftMemoryWatermark.
	rejectedMemory int64
}

type tenantState struct {
	queued, running    int
	memory             int64
	admitted, rejected int64
	// memEWMA is the tenant's exponentially weighted mean of measured run
	// peaks (Stats.MemPeakBytes), fed at release with gain 1/8. Above the
	// soft watermark admission charges max(declared, memEWMA), so a tenant
	// whose runs routinely outgrow their declarations pays its measured
	// footprint. Zero until the tenant's first accounted run completes.
	memEWMA int64
}

func newAdmission(cfg *AdmissionConfig) *admission {
	return &admission{cfg: cfg, tenants: make(map[string]*tenantState)}
}

func (a *admission) tenant(name string) *tenantState {
	ts := a.tenants[name]
	if ts == nil {
		ts = &tenantState{}
		a.tenants[name] = ts
	}
	return ts
}

// admit reserves a queue slot (and the charged memory) for one submission,
// or rejects it. Rejections increment counters but reserve nothing. The
// return value is the memory actually charged — the declared estimate, or
// the tenant's EWMA of measured peaks when the live gauge is above the soft
// watermark and the EWMA is larger — which the caller must stash for
// release to refund.
func (a *admission) admit(tenant string, qos QoSClass, mem, liveBytes int64) (int64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts := a.tenant(tenant)
	if cfg := a.cfg; cfg != nil {
		if soft := cfg.SoftMemoryWatermark; soft > 0 && liveBytes > soft {
			if qos == QoSBestEffort {
				a.rejectedMemory++
				a.rejectedLoad++
				ts.rejected++
				return 0, fmt.Errorf("%w: %d live bytes above soft memory watermark %d; best-effort shed", ErrAdmission, liveBytes, soft)
			}
			// Under pressure, stop trusting declarations: charge at least
			// the tenant's measured footprint.
			if ts.memEWMA > mem {
				mem = ts.memEWMA
			}
		}
		switch {
		case cfg.MaxQueued > 0 && a.queued >= cfg.MaxQueued:
			a.rejectedLoad++
			ts.rejected++
			return 0, fmt.Errorf("%w: %d roots queued (max %d)", ErrAdmission, a.queued, cfg.MaxQueued)
		case cfg.MaxActive > 0 && a.queued+a.running >= cfg.MaxActive:
			a.rejectedLoad++
			ts.rejected++
			return 0, fmt.Errorf("%w: %d runs in flight (max %d)", ErrAdmission, a.queued+a.running, cfg.MaxActive)
		case cfg.MaxMemory > 0 && a.memory+mem > cfg.MaxMemory:
			a.rejectedLoad++
			ts.rejected++
			return 0, fmt.Errorf("%w: %d bytes of declared memory in flight (max %d)", ErrAdmission, a.memory, cfg.MaxMemory)
		}
		q := cfg.quotaFor(tenant)
		switch {
		case q.MaxQueued > 0 && ts.queued >= q.MaxQueued:
			a.rejectedQuota++
			ts.rejected++
			return 0, fmt.Errorf("%w: tenant %q has %d roots queued (max %d)", ErrQuota, tenant, ts.queued, q.MaxQueued)
		case q.MaxActive > 0 && ts.queued+ts.running >= q.MaxActive:
			a.rejectedQuota++
			ts.rejected++
			return 0, fmt.Errorf("%w: tenant %q has %d runs in flight (max %d)", ErrQuota, tenant, ts.queued+ts.running, q.MaxActive)
		case q.MaxMemory > 0 && ts.memory+mem > q.MaxMemory:
			a.rejectedQuota++
			ts.rejected++
			return 0, fmt.Errorf("%w: tenant %q has %d bytes of declared memory in flight (max %d)", ErrQuota, tenant, ts.memory, q.MaxMemory)
		}
	}
	a.queued++
	a.memory += mem
	a.admitted++
	ts.queued++
	ts.memory += mem
	ts.admitted++
	return mem, nil
}

// picked transitions one run from queued to running, at root pickup.
func (a *admission) picked(rs *runState) {
	a.mu.Lock()
	rs.picked = true
	a.queued--
	a.running++
	ts := a.tenant(rs.tenant)
	ts.queued--
	ts.running++
	a.mu.Unlock()
}

// release returns a run's reservation, at finish (or when a submission dies
// before pickup: serial elision, shut-down runtime). The refund is memAdm —
// exactly what admit charged — and happens exactly once per run (release is
// guarded by releaseOnce), so a root cancelled before pickup and a run that
// ends in a quarantined panic both refund their memory exactly once. The
// run's measured peak, when accounting was armed, feeds the tenant's EWMA.
func (a *admission) release(rs *runState) {
	var sample int64
	if rs.stats != nil {
		sample = rs.memPeakBytes() // reads atomics; taken outside a.mu
	}
	a.mu.Lock()
	if rs.picked {
		a.running--
	} else {
		a.queued--
	}
	a.memory -= rs.memAdm
	ts := a.tenant(rs.tenant)
	if rs.picked {
		ts.running--
	} else {
		ts.queued--
	}
	ts.memory -= rs.memAdm
	if sample > 0 {
		if ts.memEWMA == 0 {
			ts.memEWMA = sample
		} else {
			ts.memEWMA += (sample - ts.memEWMA) / 8
		}
	}
	if len(a.tenants) > maxTenantEntries && ts.queued == 0 && ts.running == 0 && ts.memory == 0 {
		delete(a.tenants, rs.tenant)
	}
	a.mu.Unlock()
}

// TenantLoad is one tenant's slice of a LoadReport.
type TenantLoad struct {
	// Tenant is the label submissions carried via WithTenant ("" for
	// unlabeled work).
	Tenant string
	// Queued and Running count the tenant's in-flight runs by phase;
	// Memory is its in-flight admission-charged memory, in bytes.
	Queued, Running int
	Memory          int64
	// MemEWMA is the tenant's exponentially weighted mean of measured run
	// peaks (zero until an accounted run completes) — the footprint
	// admission charges instead of the declaration under memory pressure.
	MemEWMA int64
	// Admitted and Rejected are cumulative submission counts. Idle tenants
	// may be pruned once more than 256 are tracked, restarting their
	// cumulative counts; the runtime-wide totals in LoadReport stay exact.
	Admitted, Rejected int64
}

// LoadReport is a point-in-time snapshot of the runtime's serving load —
// the backpressure signal a caller shapes traffic with.
type LoadReport struct {
	// Workers is the worker count; Parked is how many are currently parked
	// (idle capacity).
	Workers, Parked int
	// Queued counts roots waiting in injection lanes, in total and by QoS
	// class name.
	Queued        int
	QueuedByClass map[string]int
	// Running counts roots picked up and not yet finished.
	Running int
	// Admitted, RejectedLoad, and RejectedQuota are cumulative submission
	// outcomes: accepted, refused with ErrAdmission, refused with ErrQuota.
	Admitted      int64
	RejectedLoad  int64
	RejectedQuota int64
	// Tenants lists per-tenant load, sorted by tenant label.
	Tenants []TenantLoad
}

// LoadReport snapshots the runtime's serving load. The counters come from
// independently-locked sources, so a snapshot taken while submissions are in
// flight can be transiently inconsistent between fields (Queued vs. the
// per-tenant sums); each field is individually exact.
func (rt *Runtime) LoadReport() LoadReport {
	r := LoadReport{
		Workers:       rt.cfg.workers,
		Parked:        int(rt.parked.Load()),
		Queued:        int(rt.injected.Load()),
		QueuedByClass: make(map[string]int, numQoS),
	}
	for c := 0; c < numQoS; c++ {
		r.QueuedByClass[QoSClass(c).String()] = int(rt.queuedByClass[c].Load())
	}
	a := rt.adm
	a.mu.Lock()
	r.Running = a.running
	r.Admitted = a.admitted
	r.RejectedLoad = a.rejectedLoad
	r.RejectedQuota = a.rejectedQuota
	r.Tenants = make([]TenantLoad, 0, len(a.tenants))
	for name, ts := range a.tenants {
		r.Tenants = append(r.Tenants, TenantLoad{
			Tenant: name, Queued: ts.queued, Running: ts.running,
			Memory: ts.memory, MemEWMA: ts.memEWMA,
			Admitted: ts.admitted, Rejected: ts.rejected,
		})
	}
	a.mu.Unlock()
	sort.Slice(r.Tenants, func(i, j int) bool { return r.Tenants[i].Tenant < r.Tenants[j].Tenant })
	return r
}
