package sched

// This file is the serving-side injection path: per-worker sharded lanes of
// root tasks, each lane holding one queue per QoS class, drained by weighted
// deficit round-robin (DRR).
//
// Why sharded: one global FIFO guarded by the runtime mutex made every idle
// probe of every worker serialize on that mutex, and made a flood of cheap
// best-effort submissions head-of-line-block an interactive one behind
// thousands of queue positions. Lanes shard the submission path — a
// submitting goroutine contends only with submitters hashed to the same lane
// plus that lane's drainers — and tenant-hashed placement keeps a tenant's
// roots landing on the lane of the worker most recently warm with its state
// (the serving analogue of localized work stealing). Any idle worker sweeps
// all lanes starting at its own, so placement is an affinity hint, never a
// partition: work on one lane is visible to every worker.
//
// Why DRR: each class carries a weight (interactive 8, batch 4, best-effort
// 1). A lane's pop visits classes round-robin; a class must accumulate
// `weight` credits (deficit) before the rotor moves on, and each popped root
// costs one credit. Under backlog in all classes the service ratio converges
// to exactly 8:4:1 regardless of arrival order or flood depth, and an empty
// class forfeits its credits (deficit resets to zero) so an idle class can
// never bank credit and then burst-starve the others. Classic DRR with
// cost-1 packets; DESIGN.md §4f works the math.

import "sync"

// QoSClass is the quality-of-service class of a submitted computation. The
// class decides only the rate at which queued roots are *picked up* under
// backlog (the DRR weights below); once running, tasks of all classes share
// the workers identically.
type QoSClass uint8

const (
	// QoSInteractive is for latency-sensitive work: weight 8.
	QoSInteractive QoSClass = iota
	// QoSBatch is the default class: weight 4.
	QoSBatch
	// QoSBestEffort is for work that should only soak up slack: weight 1.
	QoSBestEffort

	numQoS = 3
)

// qosWeights are the DRR credits granted per rotor visit. Under backlog in
// every class the pickup ratio converges to these weights.
var qosWeights = [numQoS]int{8, 4, 1}

var qosNames = [numQoS]string{"interactive", "batch", "best-effort"}

func (q QoSClass) String() string {
	if int(q) < numQoS {
		return qosNames[q]
	}
	return "invalid"
}

// ParseQoS maps a class name ("interactive", "batch", "best-effort") to its
// QoSClass. The second result reports whether the name was recognized.
func ParseQoS(s string) (QoSClass, bool) {
	for i, n := range qosNames {
		if s == n {
			return QoSClass(i), true
		}
	}
	return QoSBatch, false
}

// injectLane is one shard of the root-injection queue: a per-class FIFO plus
// the lane's DRR rotor state. Lanes are locked independently of rt.mu;
// submitters take rt.mu → lane.mu (in that order, see Submit) while drainers
// take lane.mu alone, so the lane lock is the only cross-section between a
// submitting goroutine and an idle worker's sweep.
type injectLane struct {
	mu      sync.Mutex
	q       [numQoS][]*task
	deficit [numQoS]int
	cur     int
}

// push enqueues a root task under class cls. Within a class, higher-priority
// roots (WithPriority) are placed ahead of lower ones; equal priorities keep
// FIFO arrival order (stable insert from the back — the common all-default
// case is a pure append).
func (l *injectLane) push(t *task, cls QoSClass, prio int) {
	l.mu.Lock()
	q := l.q[cls]
	i := len(q)
	for i > 0 && rootPrio(q[i-1]) < prio {
		i--
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = t
	l.q[cls] = q
	l.mu.Unlock()
}

// rootPrio reads the submission priority of a queued root task.
func rootPrio(t *task) int { return t.frame.run.prio }

// pop removes and returns the next root task by deficit round-robin, or nil
// if the lane is empty. Each popped root costs one credit against its
// class's deficit; a class visited while empty forfeits its accumulated
// credit, so weights bound *service* under backlog without letting an idle
// class bank a burst.
func (l *injectLane) pop() *task {
	l.mu.Lock()
	defer l.mu.Unlock()
	for visited := 0; visited < numQoS; visited++ {
		c := l.cur
		q := l.q[c]
		if len(q) == 0 {
			l.deficit[c] = 0
			l.cur = (l.cur + 1) % numQoS
			continue
		}
		if l.deficit[c] <= 0 {
			l.deficit[c] += qosWeights[c]
		}
		t := q[0]
		// Nil out the popped head: the backing array survives the reslice,
		// and without this it would retain the root task (and its whole
		// frame tree) until the slice is reallocated.
		q[0] = nil
		l.q[c] = q[1:]
		l.deficit[c]--
		if l.deficit[c] <= 0 || len(l.q[c]) == 0 {
			l.cur = (l.cur + 1) % numQoS
		}
		return t
	}
	return nil
}

// size returns the number of queued roots in the lane.
func (l *injectLane) size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for c := 0; c < numQoS; c++ {
		n += len(l.q[c])
	}
	return n
}

// laneHash maps a tenant label to a lane deterministically: FNV-1a over
// the label with the runtime's steal seed folded into the offset basis.
// The previous implementation hashed with a process-random
// maphash.MakeSeed(), so tenant→lane placement differed on every run —
// which broke schedfuzz's "a trial is a pure function of its seed"
// contract and made WithStealSeed reproductions place tenants on different
// lanes than the run being reproduced. Two runtimes built with the same
// steal seed now agree on placement across processes and restarts
// (TestLaneHashDeterministic pins this).
func laneHash(seed int64, tenant string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ uint64(seed)*0x9e3779b97f4a7c15
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= prime64
	}
	return h
}

// laneFor picks the lane a submission lands on: tenant-hashed for labeled
// submissions (a tenant's roots keep hitting the lane of the worker warm
// with its state), round-robin for anonymous ones.
func (rt *Runtime) laneFor(tenant string) *injectLane {
	n := len(rt.lanes)
	if n == 1 {
		return rt.lanes[0]
	}
	if tenant != "" {
		return rt.lanes[laneHash(rt.cfg.stealSeed, tenant)%uint64(n)]
	}
	return rt.lanes[uint64(rt.laneRR.Add(1))%uint64(n)]
}

// queuedRoots counts queued roots across all lanes (the slow, exact
// counterpart of the rt.injected fast-path gauge; used by diagnostics).
func (rt *Runtime) queuedRoots() int {
	n := 0
	for _, l := range rt.lanes {
		n += l.size()
	}
	return n
}
