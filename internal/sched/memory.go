package sched

// This file is the runtime's memory-accounting and budget-enforcement layer
// — the enforcement half of the Cilkmem story (internal/cilkmem is the
// analysis half). The model is the same as the analyzer's: a run's live
// memory is the sum of its live activation frames, queued or running, plus
// whatever the program itself declares through Context.Charge/Refund. The
// accounting rides in the same per-worker runCell shards as the run's
// counters: a running frame is one of the cell's live frames (liveFrames),
// so an inline spawn pays nothing more for its memory, and a frame
// allocated but not running — a pushed child waiting in a deque, a Call's
// frame — is charged to the cell's memLive, with the program's own charges.
// Both are counted in the worker's plain run mirror and flushed with it, or,
// on a budgeted run, written through to a cache line the worker already
// owns, so no run pays cross-worker traffic for its accounting, and every
// run has its own measured high-water mark. Every charge has a worker
// to land on: a serial elision runs on a strand worker of its own
// (runSerial), so there is no worker-less path.
//
// Enforcement is cooperative, at exactly the cancellation layer's
// boundaries (spawn, task start, chunk peel): a run whose live bytes exceed
// its WithMemoryBudget is cancelled skip-but-join with ErrMemoryBudget, so
// an over-budget computation stops growing its spawn tree within one chunk
// boundary but no running strand is ever interrupted. A queued frame is
// charged by the worker that pushes it and refunded by the one that runs
// it, and a Refund may land elsewhere than its Charge, so individual cells
// can go negative; only the cross-cell sum is meaningful, and it is exact
// once the workers have flushed.

import (
	"sort"
	"unsafe"

	"cilkgo/internal/schedsan"
)

// ErrMemoryBudget is returned by a run's Ticket when the run was cancelled
// because its measured live memory — frame bytes plus Context.Charge
// declarations — exceeded its WithMemoryBudget. Match with errors.Is.
var ErrMemoryBudget error = &cancelError{msg: "sched: computation exceeded its memory budget"}

// frameMemBytes is what one live activation frame costs the accounting: the
// frame struct itself, with its embedded task and Context. The bookkeeping
// slices a frame grows (sealed views, child views) are charged to the frame
// flat — metering their exact capacity would put an allocator probe on the
// spawn fast path for a second-order term.
const frameMemBytes = int64(unsafe.Sizeof(frame{}))

// chargeMem records delta live bytes in w's cell of rs: a Context.Charge,
// or a frame that is allocated but not running going live (delta =
// +frameMemBytes) or starting to run or retiring (−frameMemBytes). Queued
// frames are charged like running ones: a spawn bomb's memory is in its
// queued frames, which is exactly what a budget must see.
//
// A budgeted run writes the mirror through to the cell at once, here and at
// every frame start and end, because checkBudgetSlow sums the live cells at
// every boundary.
func (w *worker) chargeMem(rs *runState, delta int64) {
	m := w.acct(rs)
	m.memLive += delta
	m.raisePeak()
	if rs.memBudget > 0 {
		w.flushRun()
	}
}

// raisePeak raises the mirror's live-byte watermark to its current live
// bytes: the charged balance plus the running frames.
func (m *runMirror) raisePeak() {
	m.memPeak = max(m.memPeak, m.memLive+m.c.liveFrames*frameMemBytes)
}

// memLiveBytes is the run's current live memory: the cross-cell sum of the
// running frames and the charged bytes. A queued frame's charge and refund
// may land in different cells, so individual cells can be negative; the sum
// is exact.
func (rs *runState) memLiveBytes() int64 {
	var n int64
	for i := range rs.cells {
		c := &rs.cells[i]
		n += c.memLive.Load() + c.liveFrames.Load()*frameMemBytes
	}
	return n
}

// memPeakBytes is the run's measured high-water mark, the sample the
// admission layer's per-tenant EWMA feeds on. For a budgeted run rs.memPeak
// is the true watermark (maintained by every boundary check); otherwise the
// sum of per-cell peaks is a conservative upper bound (each cell's peak
// bounds its live bytes at the true peak instant, so the sum bounds the
// total).
func (rs *runState) memPeakBytes() int64 {
	p := rs.memPeak.Load()
	var sum int64
	for i := range rs.cells {
		sum += rs.cells[i].memPeak.Load()
	}
	if sum > p {
		p = sum
	}
	return p
}

// checkBudget is the boundary gate, called at the same spawn / task-start /
// chunk-peel sites as the cancel check. The unbudgeted fast path is one
// plain field load and a branch, inlined at every site.
func (rs *runState) checkBudget(w *worker) {
	if rs.memBudget > 0 {
		rs.checkBudgetSlow(w)
	}
}

func (rs *runState) checkBudgetSlow(w *worker) {
	if rs.canceled.Load() {
		return
	}
	n := rs.memLiveBytes()
	maxStore(&rs.memPeak, n)
	// Sanitizer: a forced PointMemCharge failure trips the budget
	// spuriously. Only budget-armed runs ever reach this point, so the
	// fault exercises exactly the ErrMemoryBudget drain path.
	fault := w.san.Fail(schedsan.PointMemCharge)
	if n > rs.memBudget || fault {
		rs.cancelWith(ErrMemoryBudget)
	}
}

// Charge records bytes of memory the calling strand has made live — a big
// allocation the frame model cannot see — against the run's accounting and
// budget. Refund (or Charge with a negative delta) returns it; a strand
// need not refund on the worker that charged. On a budgeted run a positive
// charge is itself a budget check site, so a single oversized allocation is
// caught immediately rather than at the next spawn. The charge is flushed to
// the run's cell at once, so the runtime-wide live gauge
// (Runtime.MemLiveBytes) sees it before the strand goes on.
func (c *Context) Charge(bytes int64) {
	if bytes == 0 {
		return
	}
	rs, w := c.frame.run, c.w
	w.chargeMem(rs, bytes)
	w.flushRun()
	if bytes > 0 {
		rs.checkBudget(w)
	}
}

// Refund returns bytes previously recorded with Charge. Refund(n) is
// Charge(-n).
func (c *Context) Refund(bytes int64) { c.Charge(-bytes) }

// MemLiveBytes estimates the runtime's current live computation memory:
// the live bytes of every run in flight — its frames at frameMemBytes each,
// queued spawns included, plus its net Context.Charge balance — and the
// Charge balance finished runs left unrefunded. It is a racy gauge — workers
// update their cells while it sums, and a busy worker's frame charges trail
// by up to publishEvery spawns (a run's root frame and every Charge are
// visible at once) — suitable for watermark decisions, not invariants;
// exact at quiescence. A serial-elision runtime counts the runs executing
// on their callers' goroutines.
func (rt *Runtime) MemLiveBytes() int64 {
	var n int64
	for _, c := range rt.cellTotals() {
		n += c.liveBytes()
	}
	return n
}

// TenantMem is one tenant's slice of a MemReport.
type TenantMem struct {
	// Tenant is the label submissions carried via WithTenant.
	Tenant string
	// Memory is the tenant's in-flight admission-charged bytes; EWMA is the
	// exponentially weighted mean of its runs' measured peaks — what
	// admission charges a declared-too-small submission above the soft
	// watermark.
	Memory int64
	EWMA   int64
}

// MemReport is a point-in-time snapshot of the runtime's memory posture:
// the live gauge, the configured watermarks, the pressure counters, and the
// per-tenant measured footprints.
type MemReport struct {
	// LiveBytes is Runtime.MemLiveBytes at snapshot time.
	LiveBytes int64
	// SoftWatermark and HardWatermark echo the AdmissionConfig (0 = unset).
	SoftWatermark int64
	HardWatermark int64
	// BudgetCancels counts runs cancelled with ErrMemoryBudget — per-run
	// budgets and hard-watermark shedding together.
	BudgetCancels int64
	// PressureRejected counts best-effort submissions refused because the
	// runtime was above its soft watermark.
	PressureRejected int64
	// Tenants lists per-tenant memory state, sorted by label.
	Tenants []TenantMem
}

// MemReport snapshots the runtime's memory posture.
func (rt *Runtime) MemReport() MemReport {
	r := MemReport{
		LiveBytes:     rt.MemLiveBytes(),
		BudgetCancels: rt.memBudgetCancels.Load(),
	}
	a := rt.adm
	a.mu.Lock()
	if cfg := a.cfg; cfg != nil {
		r.SoftWatermark = cfg.SoftMemoryWatermark
		r.HardWatermark = cfg.HardMemoryWatermark
	}
	r.PressureRejected = a.rejectedMemory
	r.Tenants = make([]TenantMem, 0, len(a.tenants))
	for name, ts := range a.tenants {
		r.Tenants = append(r.Tenants, TenantMem{Tenant: name, Memory: ts.memory, EWMA: ts.memEWMA})
	}
	a.mu.Unlock()
	sort.Slice(r.Tenants, func(i, j int) bool { return r.Tenants[i].Tenant < r.Tenants[j].Tenant })
	return r
}

// memWatermarksArmed reports whether submissions need the live gauge. cfg
// is immutable after construction, so no lock.
func (a *admission) memWatermarksArmed() bool {
	cfg := a.cfg
	return cfg != nil && (cfg.SoftMemoryWatermark > 0 || cfg.HardMemoryWatermark > 0)
}

// shedForMemory is the hard-watermark degradation step, run at submission
// time when the live gauge is above HardMemoryWatermark: cancel (with
// ErrMemoryBudget) the best-effort run whose measured live memory most
// exceeds its tenant's EWMA — the one most out of profile. Locks are taken
// strictly in sequence (a.mu, then rt.mu, then neither), never nested, and
// the cancel itself happens outside both.
func (rt *Runtime) shedForMemory(liveBytes int64) {
	cfg := rt.adm.cfg
	if cfg == nil || cfg.HardMemoryWatermark <= 0 || liveBytes <= cfg.HardMemoryWatermark {
		return
	}
	a := rt.adm
	a.mu.Lock()
	ewma := make(map[string]int64, len(a.tenants))
	for name, ts := range a.tenants {
		ewma[name] = ts.memEWMA
	}
	a.mu.Unlock()
	var victim *runState
	var worst int64
	rt.mu.Lock()
	for rs := range rt.active {
		if rs.qos != QoSBestEffort || rs.canceled.Load() {
			continue
		}
		if over := rs.memLiveBytes() - ewma[rs.tenant]; over > 0 && over > worst {
			worst, victim = over, rs
		}
	}
	rt.mu.Unlock()
	if victim != nil {
		victim.cancelWith(ErrMemoryBudget)
	}
}
