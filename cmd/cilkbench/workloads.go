package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cilkgo"
	"cilkgo/internal/hyper"
	"cilkgo/internal/pfor"
	"cilkgo/internal/workloads"
)

// sizes are the problem sizes; -smoke shrinks them so the whole harness,
// oracle included, runs in a few seconds under go test.
type sizes struct {
	fibN      int
	fibObsN   int
	matN      int
	loopSteps int
	loopIters int
	sinsumN   []int // submit_mix and serve_http request sizes, small → large
	matmulN   []int // serve_http /matmul sizes
	compute   slots
	serving   slots
	// ladderScale divides the cost ladder's fixed operation counts.
	ladderScale int
}

var fullSizes = sizes{
	fibN: 30,
	// Armed, a spawn costs about three times as much and a rep at nproc
	// workers varies by 16% from one to the next (fib's by 7%), so the
	// observed variant needs more and shorter reps for the same steadiness:
	// four sizes down a run has 45 blocks. T/T_S does not depend on n.
	fibObsN:   26,
	matN:      512,
	loopSteps: 500,
	loopIters: 1 << 16,
	sinsumN:   []int{2_000, 20_000, 200_000},
	matmulN:   []int{32, 64},
	// One request per platform slot; the serial elision is repeated until
	// it fills 100 ms so it samples the same contention as the rep beside it.
	compute:     slots{serial: 100 * time.Millisecond},
	serving:     slots{serial: 45 * time.Millisecond, one: 50 * time.Millisecond, par: 100 * time.Millisecond},
	ladderScale: 1,
}

var smokeSizes = sizes{
	fibN:      16,
	fibObsN:   16,
	matN:      32,
	loopSteps: 10,
	loopIters: 1 << 10,
	sinsumN:   []int{100, 1_000, 10_000},
	matmulN:   []int{8, 16},
	compute:   slots{serial: time.Millisecond},
	serving:   slots{serial: 3 * time.Millisecond, one: 10 * time.Millisecond, par: 20 * time.Millisecond},

	ladderScale: 64,
}

// mixWeights is the share of small, medium and large requests in the
// serving schedules. Seven requests in ten are small ones, whose latency is
// Submit, lane pickup and park→wake; two thirds of the work is in the one in
// twenty that is large. With these shares about a third of the mix's mean
// latency is per-request overhead, so the work-weighted stretch still moves
// when the Submit path does.
var mixWeights = []float64{0.7, 0.25, 0.05}

// builders maps a workload name to the function that turns a seed into its
// plan. The platform receives only the generated inputs, never the seed.
var builders = map[string]func(env, *rand.Rand) (plan, error){
	"fib":          func(e env, _ *rand.Rand) (plan, error) { return fibPlan(e, false), nil },
	"fib_observed": func(e env, _ *rand.Rand) (plan, error) { return fibPlan(e, true), nil },
	"matmul":       matmulPlan,
	"loop_steps":   loopStepsPlan,
	"submit_mix":   submitMixPlan,
	"serve_http":   serveHTTPPlan,
}

// env is what a builder needs besides the seed.
type env struct {
	sz       sizes
	procs    int    // nproc: workers of the wide arm, callers of a serving workload
	serveBin string // built examples/serve, for serve_http
	trace    bool
}

// runtimeArm starts an in-process platform arm.
func runtimeArm(opts ...cilkgo.Option) func(int) (arm, error) {
	return func(workers int) (arm, error) {
		o := append([]cilkgo.Option{cilkgo.WithWorkers(workers)}, opts...)
		return &rtArm{rt: cilkgo.New(o...)}, nil
	}
}

func computePlan(e env, k kind, start func(int) (arm, error)) plan {
	return plan{
		kinds:    []kind{k},
		schedule: []request{{}},
		callers:  1,
		slots:    e.sz.compute,
		startArm: start,
	}
}

// fibPlan has no input to seed: fib(n) is the spawn path and nothing else.
// The observed variant builds its runtimes WithObserver, as examples/serve
// does, so the online Cilkview clocks are armed on every spawn and sync.
func fibPlan(e env, observed bool) plan {
	n := e.sz.fibN
	if observed {
		n = e.sz.fibObsN
	}
	k := kind{
		name:   fmt.Sprintf("fib(%d)", n),
		serial: func() float64 { return float64(workloads.SerialFib(n)) },
		par:    func(c *cilkgo.Context) float64 { return float64(workloads.Fib(c, n)) },
	}
	start := runtimeArm()
	if observed {
		// A fresh registry per arm: WithObserver(shared) would make the two
		// runtimes contend on one registry's lock.
		start = func(workers int) (arm, error) {
			return runtimeArm(cilkgo.WithObserver(cilkgo.NewObserver(0)))(workers)
		}
	}
	return computePlan(e, k, start)
}

func checksum(m *workloads.Matrix) float64 {
	var s float64
	for _, v := range m.Elts {
		s += v
	}
	return s
}

func matmulPlan(e env, rng *rand.Rand) (plan, error) {
	n := e.sz.matN
	a, b := workloads.NewMatrix(n), workloads.NewMatrix(n)
	for i := range a.Elts {
		a.Elts[i] = rng.Float64()*2 - 1
		b.Elts[i] = rng.Float64()*2 - 1
	}
	// The platform arms run one at a time (one caller, slots in sequence),
	// so they can share an output matrix; the serial elision has its own.
	sout, pout := workloads.NewMatrix(n), workloads.NewMatrix(n)
	k := kind{
		name:   fmt.Sprintf("matmul(%d)", n),
		serial: func() float64 { workloads.SerialMatMul(a, b, sout); return checksum(sout) },
		par:    func(c *cilkgo.Context) float64 { workloads.MatMul(c, a, b, pout); return checksum(pout) },
	}
	return computePlan(e, k, runtimeArm()), nil
}

// loopStepsPlan is the time-stepped solver shape: many short parallel
// loops back to back, each folding a light body through a reducer.
func loopStepsPlan(e env, rng *rand.Rand) (plan, error) {
	steps, iters := e.sz.loopSteps, e.sz.loopIters
	data := make([]int64, iters)
	for i := range data {
		data[i] = rng.Int63n(1 << 20)
	}
	add := hyper.FuncMonoid(func() int64 { return 0 }, func(l, r int64) int64 { return l + r })
	k := kind{
		name: fmt.Sprintf("loop_steps(%dx%d)", steps, iters),
		serial: func() float64 {
			var total int64
			for s := 0; s < steps; s++ {
				var sum int64
				for i := 0; i < iters; i++ {
					sum += data[i] ^ int64(s)
				}
				total += sum
			}
			return float64(total)
		},
		par: func(c *cilkgo.Context) float64 {
			var total int64
			for s := 0; s < steps; s++ {
				s64 := int64(s)
				total += pfor.Reduce(c, 0, iters, add, func(_ *cilkgo.Context, i int) int64 {
					return data[i] ^ s64
				})
			}
			return float64(total)
		},
	}
	return computePlan(e, k, runtimeArm()), nil
}

// sinsum is the workload of examples/serve's /sinsum handler (the paper's
// Fig. 1 loop): fill an array with sines, then fold the sum on the calling
// strand. The handler allocates the array per request; here the callers lend
// a buffer, so that what submit_mix measures is Submit, pickup and wake-up and
// not Go's allocator and collector, whose cycles made the serial calibration
// swing by 2x from block to block.
func serialSinsum(a []float64) float64 {
	for i := range a {
		a[i] = math.Sin(float64(i))
	}
	var sum float64
	for _, v := range a {
		sum += v
	}
	return sum
}

func parSinsum(c *cilkgo.Context, a []float64) float64 {
	cilkgo.For(c, 0, len(a), func(_ *cilkgo.Context, i int) {
		a[i] = math.Sin(float64(i))
	})
	var sum float64
	for _, v := range a {
		sum += v
	}
	return sum
}

func serialServeMatmul(n int) float64 {
	a, b, out := workloads.NewMatrix(n), workloads.NewMatrix(n), workloads.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64(i+j))
			b.Set(i, j, float64(i-j))
		}
	}
	workloads.SerialMatMul(a, b, out)
	return out.At(n/2, n/2)
}

// sinsumKind lends its requests buffers from a free list as deep as the
// number of requests that can be in flight at once.
func sinsumKind(n, inFlight int) kind {
	own := make([]float64, n)
	free := make(chan []float64, inFlight)
	for i := 0; i < inFlight; i++ {
		free <- make([]float64, n)
	}
	return kind{
		name:   fmt.Sprintf("sinsum(%d)", n),
		serial: func() float64 { return serialSinsum(own) },
		par: func(c *cilkgo.Context) float64 {
			a := <-free
			defer func() { free <- a }()
			return parSinsum(c, a)
		},
		path: fmt.Sprintf("/sinsum?n=%d", n),
	}
}

// seededSchedule draws the request-kind and tenant sequence. weights[i] is
// kind i's share. Every stretch of scheduleChunk requests holds each kind in
// exactly its share (rounded; the first kind takes the remainder) and the
// seed only orders them, so the mix — and with it the true value of every
// ratio — is the same for every seed and nearly the same in every block.
func seededSchedule(rng *rand.Rand, weights []float64, n int) []request {
	var total float64
	for _, w := range weights {
		total += w
	}
	chunk := make([]int, 0, scheduleChunk)
	for k := len(weights) - 1; k >= 0; k-- {
		c := int(math.Round(weights[k] / total * scheduleChunk))
		if k == 0 {
			c = scheduleChunk - len(chunk)
		}
		for ; c > 0; c-- {
			chunk = append(chunk, k)
		}
	}
	out := make([]request, 0, n)
	for len(out) < n {
		rng.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		for _, k := range chunk {
			out = append(out, request{kind: k, tenant: rng.Intn(len(tenants))})
		}
	}
	return out[:n]
}

const (
	scheduleLen   = 4000
	scheduleChunk = 100
)

func submitMixPlan(e env, rng *rand.Rand) (plan, error) {
	var kinds []kind
	for _, n := range e.sz.sinsumN {
		kinds = append(kinds, sinsumKind(n, e.procs))
	}
	// Admission is armed, as a server would arm it, with limits a closed
	// loop of nproc callers never reaches: the workload pays for the
	// accounting, and no operation is refused.
	adm := cilkgo.WithAdmission(cilkgo.AdmissionConfig{
		MaxQueued:    1 << 10,
		MaxActive:    1 << 10,
		DefaultQuota: cilkgo.Quota{MaxActive: 1 << 8},
	})
	return plan{
		kinds:    kinds,
		schedule: seededSchedule(rng, mixWeights, scheduleLen),
		callers:  e.procs,
		slots:    e.sz.serving,
		startArm: runtimeArm(adm),
	}, nil
}

func serveHTTPPlan(e env, rng *rand.Rand) (plan, error) {
	if e.serveBin == "" {
		return plan{}, fmt.Errorf("serve_http needs the examples/serve binary")
	}
	var kinds []kind
	var weights []float64
	for i, n := range e.sz.sinsumN {
		kinds = append(kinds, sinsumKind(n, e.procs))
		weights = append(weights, mixWeights[i]*0.8)
	}
	for _, n := range e.sz.matmulN {
		n := n
		kinds = append(kinds, kind{
			name:   fmt.Sprintf("matmul(%d)", n),
			serial: func() float64 { return serialServeMatmul(n) },
			path:   fmt.Sprintf("/matmul?n=%d", n),
		})
		weights = append(weights, 0.2/float64(len(e.sz.matmulN)))
	}
	return plan{
		kinds:    kinds,
		schedule: seededSchedule(rng, weights, scheduleLen),
		callers:  e.procs,
		slots:    e.sz.serving,
		startArm: func(workers int) (arm, error) { return startServer(e.serveBin, workers, e.trace) },
	}, nil
}
