// Package cilkview reproduces the Cilk++ performance-analysis tool the
// paper demonstrates in Fig. 3: given the work and span of a computation,
// it derives the speedup bounds of §2 — the Work Law line of slope 1, the
// Span Law ceiling at the parallelism T1/T∞ — together with the tool's
// estimated lower bound on speedup based on burdened parallelism, "which
// takes into account the estimated cost of scheduling", and renders them as
// the table/series behind the figure.
//
// Profiles come from two sources:
//
//   - analytically, from a virtual program (vprog.Analyze /
//     vprog.AnalyzeBurdened), which scales to the paper's 10⁸-element
//     quicksort; and
//   - empirically, from an instrumented serial run of a real program on
//     the runtime (Measure), timing every strand between parallel-control
//     events, exactly as the tool profiles a real binary.
package cilkview

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"cilkgo/internal/dag"
	"cilkgo/internal/sched"
	"cilkgo/internal/vprog"
)

// Profile is the work/span summary of one computation.
type Profile struct {
	Name string
	// Work and Span are in abstract cost units (virtual programs) or
	// nanoseconds (measured runs).
	Work int64
	Span int64
	// BurdenedSpan is the span recomputed with Burden units of scheduling
	// overhead charged per spawn; BurdenedSpan == Span when Burden is 0.
	BurdenedSpan int64
	Burden       int64
	Spawns       int64
	// Critical is the total work done holding the program's one lock
	// (vprog.Critical segments). Those segments run one at a time on any
	// schedule, so the span bounds below use max(span, Critical).
	Critical int64
}

// Parallelism returns T1/max(T∞, Critical): the Span Law ceiling, lock
// included.
func (p Profile) Parallelism() float64 {
	return p.ratio(p.Span)
}

// BurdenedParallelism returns T1/max(T∞ᵇ, Critical), the figure's lower
// asymptote.
func (p Profile) BurdenedParallelism() float64 {
	return p.ratio(p.BurdenedSpan)
}

// ratio returns T1 over the larger of span and the locked work, or 0 when
// both are 0.
func (p Profile) ratio(span int64) float64 {
	bound := max(span, p.Critical)
	if bound == 0 {
		return 0
	}
	return float64(p.Work) / float64(bound)
}

// SpeedupUpper returns the upper bound on speedup at P processors implied
// by the Work and Span Laws: min(P, T1/T∞).
func (p Profile) SpeedupUpper(procs int) float64 {
	if par := p.Parallelism(); par < float64(procs) {
		return par
	}
	return float64(procs)
}

// SpeedupLowerEstimate returns the tool's estimated lower bound on speedup
// at P processors: T1 / (T1/P + max(T∞ᵇ, Critical)), the greedy bound
// evaluated with the burdened span, or the locked work where that is
// longer.
func (p Profile) SpeedupLowerEstimate(procs int) float64 {
	if p.Work == 0 {
		return 0
	}
	est := float64(p.Work)/float64(procs) + float64(max(p.BurdenedSpan, p.Critical))
	return float64(p.Work) / est
}

// FromProgram profiles a virtual program analytically with the given
// per-spawn burden.
func FromProgram(prog vprog.Program, burden int64) Profile {
	m := vprog.Analyze(prog)
	bm := m
	if burden > 0 {
		bm = vprog.AnalyzeBurdened(prog, burden)
	}
	return Profile{
		Name:         prog.Name,
		Work:         m.Work,
		Span:         m.Span,
		BurdenedSpan: bm.Span,
		Burden:       burden,
		Spawns:       m.Spawns,
		Critical:     m.Critical,
	}
}

// Point is one measured speedup sample plotted against the bounds.
type Point struct {
	Procs   int
	Speedup float64
}

// Render formats the profile as the Fig. 3 table: one row per processor
// count with the lower estimate, any measured points, and the two upper
// bounds. procs lists the machine sizes to tabulate; measured may be nil.
func Render(p Profile, procs []int, measured []Point) string {
	byProcs := make(map[int]float64, len(measured))
	for _, m := range measured {
		byProcs[m.Procs] = m.Speedup
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Parallelism profile: %s\n", p.Name)
	fmt.Fprintf(&b, "  Work (T1)              %18d\n", p.Work)
	fmt.Fprintf(&b, "  Span (T∞)              %18d\n", p.Span)
	if p.Critical > 0 {
		fmt.Fprintf(&b, "  Critical (locked)      %18d  (serialized: bounds speedup like T∞)\n", p.Critical)
		fmt.Fprintf(&b, "  Parallelism (T1/max)   %18.2f\n", p.Parallelism())
	} else {
		fmt.Fprintf(&b, "  Parallelism (T1/T∞)    %18.2f\n", p.Parallelism())
	}
	if p.Burden > 0 {
		fmt.Fprintf(&b, "  Burdened span          %18d  (burden %d/spawn)\n", p.BurdenedSpan, p.Burden)
		fmt.Fprintf(&b, "  Burdened parallelism   %18.2f\n", p.BurdenedParallelism())
	}
	fmt.Fprintf(&b, "  Spawns                 %18d\n", p.Spawns)
	b.WriteString("\n      P   lower-est")
	if len(measured) > 0 {
		b.WriteString("    measured")
	}
	b.WriteString("    work-law    span-law\n")
	sorted := append([]int(nil), procs...)
	sort.Ints(sorted)
	for _, n := range sorted {
		fmt.Fprintf(&b, "  %5d  %10.2f", n, p.SpeedupLowerEstimate(n))
		if len(measured) > 0 {
			if s, ok := byProcs[n]; ok {
				fmt.Fprintf(&b, "  %10.2f", s)
			} else {
				fmt.Fprintf(&b, "  %10s", "-")
			}
		}
		fmt.Fprintf(&b, "  %10d  %10.2f\n", n, p.Parallelism())
	}
	return b.String()
}

// CSV emits the same series as comma-separated values for plotting:
// procs,lower,measured,worklaw,spanlaw (measured empty when absent).
func CSV(p Profile, procs []int, measured []Point) string {
	byProcs := make(map[int]float64, len(measured))
	for _, m := range measured {
		byProcs[m.Procs] = m.Speedup
	}
	var b strings.Builder
	b.WriteString("procs,lower_estimate,measured,work_law,span_law\n")
	sorted := append([]int(nil), procs...)
	sort.Ints(sorted)
	for _, n := range sorted {
		fmt.Fprintf(&b, "%d,%.4f,", n, p.SpeedupLowerEstimate(n))
		if s, ok := byProcs[n]; ok {
			fmt.Fprintf(&b, "%.4f", s)
		}
		fmt.Fprintf(&b, ",%d,%.4f\n", n, p.Parallelism())
	}
	return b.String()
}

// Measure profiles a real computation: it executes fn as its serial elision
// with timing hooks, charging the wall-clock duration of every strand
// (the code between consecutive parallel-control events) as that strand's
// work, and reconstructs the computation's dag to obtain measured work and
// span in nanoseconds. This is how the Cilk++ tool produced Fig. 3 from an
// actual quicksort binary.
func Measure(name string, fn func(*sched.Context)) (Profile, error) {
	tr := &timingHooks{bld: dag.NewBuilder(), last: time.Now()}
	rt := sched.New(sched.WithSerialElision(), sched.WithHooks(tr))
	tk, err := rt.Submit(context.Background(), fn)
	if err == nil {
		err = tk.Wait()
	}
	if err != nil {
		return Profile{}, err
	}
	tr.charge() // close the final strand
	g := tr.bld.Finish()
	gm, err := g.Analyze()
	if err != nil {
		return Profile{}, err
	}
	return Profile{
		Name:         name,
		Work:         gm.Work,
		Span:         gm.Span,
		BurdenedSpan: gm.Span,
		Spawns:       tr.spawns,
	}, nil
}

// timingHooks accumulates strand durations into a dag builder as events
// arrive. The hooks run serially on one goroutine.
type timingHooks struct {
	bld      *dag.Builder
	last     time.Time
	spawns   int64
	depth    int  // spawned/called frames currently open (root excluded)
	rootOpen bool // the root frame's FrameStart has fired
}

// charge closes the current strand, crediting the elapsed wall time.
func (h *timingHooks) charge() {
	now := time.Now()
	ns := now.Sub(h.last).Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.bld.Step(ns)
	h.last = now
}

func (h *timingHooks) Spawn() { h.charge(); h.spawns++ }

func (h *timingHooks) FrameStart() {
	h.charge()
	if !h.rootOpen {
		// The builder's root frame is already open; just note the event.
		h.rootOpen = true
		return
	}
	h.bld.Spawn()
	h.depth++
}

func (h *timingHooks) FrameEnd() {
	h.charge()
	if h.depth == 0 {
		return // root
	}
	h.bld.Return()
	h.depth--
}

func (h *timingHooks) CallStart() {
	h.charge()
	h.bld.Call()
	h.depth++
}

func (h *timingHooks) CallEnd() {
	h.charge()
	h.bld.ReturnCall()
	h.depth--
}

func (h *timingHooks) Sync() {
	h.charge()
	h.bld.Sync()
}
