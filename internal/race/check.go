package race

import (
	"context"

	"cilkgo/internal/cilklock"
	"cilkgo/internal/sched"
)

// Check executes program once in serial-elision mode under a fresh
// Detector — exactly how Cilkscreen runs an application on a test input —
// and returns the detected races. The cilklock observer is installed for
// the duration so that mutex-protected accesses are recognized.
//
// The guarantee mirrors §4: for a deterministic program on this input, the
// returned reports are nonempty iff a race bug is exposed, i.e. iff two
// different schedulings of the parallel code could produce conflicting
// accesses.
func Check(program func(c *sched.Context, d *Detector)) ([]Report, error) {
	return checkWith(NewDetector(), program)
}

// CheckSPOrder is Check on the SP-order backend (the paper's reference [2])
// instead of SP-bags. The two backends report identical race sets; both are
// provided for cross-validation and for the offline any-pair queries only
// SP-order supports.
func CheckSPOrder(program func(c *sched.Context, d *Detector)) ([]Report, error) {
	return checkWith(NewDetectorBackend(NewSPOrderBackend()), program)
}

func checkWith(d *Detector, program func(c *sched.Context, d *Detector)) ([]Report, error) {
	cilklock.SetObserver(d)
	defer cilklock.SetObserver(nil)
	rt := sched.New(sched.WithSerialElision(), sched.WithHooks(d.Hooks()))
	tk, err := rt.Submit(context.Background(), func(c *sched.Context) { program(c, d) })
	if err == nil {
		err = tk.Wait()
	}
	return d.Reports(), err
}
