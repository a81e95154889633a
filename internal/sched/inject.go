package sched

// This file is the serving-side injection path: one queue of root tasks per
// QoS class, drained by weighted deficit round-robin (DRR). Every submitter
// pushes into the same queue and every idle worker pops from it, so DRR
// weights and WithPriority order hold across all workers. Submit already
// serializes on rt.mu, so one queue costs the submission path nothing; the
// queue's own lock is the only cross-section between a submitter and an idle
// worker (DESIGN.md §4f).
//
// Why DRR: each class carries a weight (interactive 8, batch 4, best-effort
// 1). pop visits classes round-robin; a class must accumulate `weight`
// credits (deficit) before the rotor moves on, and each popped root costs
// one credit. Under backlog in all classes the service ratio converges to
// exactly 8:4:1 regardless of arrival order or flood depth, and an empty
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

// injectLane is the root-injection queue: a per-class FIFO plus the DRR
// rotor state. Its lock is independent of rt.mu: submitters take rt.mu →
// l.mu (in that order, see Submit) while drainers take l.mu alone.
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
// if the queue is empty. Each popped root costs one credit against its
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

// lens returns the number of queued roots in each class.
func (l *injectLane) lens() (n [numQoS]int) {
	l.mu.Lock()
	for c := range n {
		n[c] = len(l.q[c])
	}
	l.mu.Unlock()
	return n
}
