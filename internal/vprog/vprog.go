// Package vprog defines virtual fork-join programs: lazily generated frame
// trees with integer-cost instruction segments, consumed by the
// discrete-event multiprocessor simulator (internal/sim) and by the
// analytic work/span analyzer in this package.
//
// A virtual program is what remains of a Cilk++ application once actual
// data is abstracted away: the spawn/call/sync structure plus the cost of
// each serial segment. The paper's performance theory (§2–§3) depends only
// on this structure, so virtual programs let us reproduce the paper's
// figures at full scale (e.g. quicksorting 10⁸ numbers) without executing
// 10⁸ element moves, and on simulated machines of any processor count.
//
// Frames are iterators, so a program with a billion frames (the §3.1
// loop-spawn example) needs only O(live frames) memory — which is itself
// the quantity the stack-space experiment bounds.
package vprog

import "cilkgo/internal/dag"

// Kind discriminates the steps of a frame.
type Kind uint8

const (
	// Exec executes Cost units of serial work.
	Exec Kind = iota
	// Spawn forks Child; the current frame's continuation becomes
	// stealable (cilk_spawn).
	Spawn
	// Call runs Child to completion serially within the current strand
	// (an ordinary function call, with its own sync scope).
	Call
	// Sync joins all children this frame has spawned (cilk_sync).
	Sync
	// End returns from the frame. An implicit Sync precedes it.
	End
	// Critical executes Cost units while holding the machine's single
	// global mutex (§5's contended output-list lock): the simulator
	// serializes all Critical segments machine-wide and charges a handoff
	// penalty when the lock migrates between processors. The dag has no
	// locks, so Analyze counts it as plain Exec in Work and Span — which is
	// precisely why a lock-bound program misses its dag-model speedup — and
	// reports the total separately (Metrics.Critical), a second lower bound
	// on any schedule's running time that Parallelism takes into account.
	Critical
)

func (k Kind) String() string {
	switch k {
	case Exec:
		return "exec"
	case Spawn:
		return "spawn"
	case Call:
		return "call"
	case Sync:
		return "sync"
	case End:
		return "end"
	case Critical:
		return "critical"
	default:
		return "invalid"
	}
}

// Step is one event in a frame's execution.
type Step struct {
	Kind  Kind
	Cost  int64 // Exec only; must be ≥ 0
	Child Frame // Spawn and Call only
}

// Frame yields the successive steps of one procedure activation. After an
// End step, Next must not be called again.
type Frame interface {
	Next() Step
}

// Program names a virtual computation and constructs fresh root frames, so
// one Program value can be analyzed and simulated repeatedly.
type Program struct {
	Name string
	Root func() Frame
}

// seqFrame replays a fixed step slice.
type seqFrame struct {
	steps []Step
	pos   int
}

func (f *seqFrame) Next() Step {
	if f.pos >= len(f.steps) {
		return Step{Kind: End}
	}
	s := f.steps[f.pos]
	f.pos++
	return s
}

// Seq returns a frame that replays the given steps and then Ends. An
// explicit trailing End step is optional.
func Seq(steps ...Step) Frame { return &seqFrame{steps: steps} }

// Leaf returns a frame that executes cost units of work and returns.
func Leaf(cost int64) Frame {
	return Seq(Step{Kind: Exec, Cost: cost})
}

// Metrics summarizes the dag-model measures of a virtual program.
type Metrics struct {
	Work int64 // T1
	Span int64 // T∞ of the dag
	// Critical is the total cost of the Critical segments. They all hold
	// the one lock, so no schedule finishes sooner than Critical, however
	// short the dag's span.
	Critical int64
	// Parallelism is T1 / max(T∞, Critical): the speedup ceiling, lock
	// included.
	Parallelism float64
	Frames      int64 // procedure activations, including the root
	Spawns      int64 // spawned activations
	MaxDepth    int64 // deepest activation (serial stack depth, S1 ∝ this)
}

// Analyze computes work and span directly from the program structure by the
// §2 recurrences — without simulating a machine:
//
//	exec c:    strand += c
//	spawn F:   pending = max(pending, strand + span(F))
//	call  F:   strand += span(F)
//	sync:      strand = max(strand, pending); pending = 0
//	end:       as sync; frame span = strand
//
// Analysis walks every frame once, so its cost is linear in the number of
// steps.
func Analyze(p Program) Metrics {
	return AnalyzeBurdened(p, 0)
}

// AnalyzeBurdened computes the burdened variant of the dag measures used by
// the Cilkview analyzer's lower speedup estimate (§3.1, Fig. 3): every
// spawn charges an extra burden of scheduling overhead to the spawning
// strand and to the spawned child's start, so the returned Span is the
// burdened span T∞ᵇ. Work is left unburdened. AnalyzeBurdened(p, 0) is
// exactly Analyze(p).
func AnalyzeBurdened(p Program, burden int64) Metrics {
	m := Metrics{}
	span := analyzeFrame(p.Root(), 1, &m, burden)
	m.Frames++ // the root
	m.Span = span
	if bound := max(m.Span, m.Critical); bound > 0 {
		m.Parallelism = float64(m.Work) / float64(bound)
	}
	if m.MaxDepth == 0 {
		m.MaxDepth = 1
	}
	return m
}

func analyzeFrame(f Frame, depth int64, m *Metrics, burden int64) (span int64) {
	if depth > m.MaxDepth {
		m.MaxDepth = depth
	}
	var strand, pending int64
	for {
		st := f.Next()
		switch st.Kind {
		case Exec, Critical:
			if st.Cost < 0 {
				panic("vprog: negative Exec cost")
			}
			m.Work += st.Cost
			strand += st.Cost
			if st.Kind == Critical {
				m.Critical += st.Cost
			}
		case Spawn:
			m.Frames++
			m.Spawns++
			cs := analyzeFrame(st.Child, depth+1, m, burden)
			if end := strand + burden + cs; end > pending {
				pending = end
			}
			strand += burden
		case Call:
			m.Frames++
			strand += analyzeFrame(st.Child, depth+1, m, burden)
		case Sync:
			if pending > strand {
				strand = pending
			}
			pending = 0
		case End:
			if pending > strand {
				strand = pending
			}
			return strand
		default:
			panic("vprog: invalid step kind")
		}
	}
}

// ToDag converts a (small) virtual program to an explicit dag via the
// series-parallel builder, charging each Exec segment as one weighted
// instruction. It is intended for cross-validation and for figure-sized
// programs; large programs should use Analyze.
func ToDag(p Program) *dag.Dag {
	b := dag.NewBuilder()
	toDagFrame(b, p.Root())
	return b.Finish()
}

func toDagFrame(b *dag.Builder, f Frame) {
	for {
		st := f.Next()
		switch st.Kind {
		case Exec, Critical:
			b.Step(st.Cost)
		case Spawn:
			b.Spawn()
			toDagFrame(b, st.Child)
			b.Return()
		case Call:
			b.Call()
			toDagFrame(b, st.Child)
			b.ReturnCall()
		case Sync:
			b.Sync()
		case End:
			return
		default:
			panic("vprog: invalid step kind")
		}
	}
}

// lazyFrame defers construction of a frame until it is first stepped, so
// recursively defined programs materialize only the frames that are live.
type lazyFrame struct {
	make func() Frame
	f    Frame
}

func (l *lazyFrame) Next() Step {
	if l.f == nil {
		l.f = l.make()
		l.make = nil
	}
	return l.f.Next()
}

// Lazy wraps a frame constructor so the frame is built on first use.
// Generators use it at every recursion site; without it, creating a root
// frame would materialize the entire frame tree eagerly.
func Lazy(make func() Frame) Frame { return &lazyFrame{make: make} }
