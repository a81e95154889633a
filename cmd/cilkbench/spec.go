package main

// This file is the benchmark's written-down contract: the workloads, the
// gated end-to-end metrics with their bounds, and the per-layer metrics with
// the end-to-end metric each one is predicted to move. BENCHMARK.json at the
// root of the repository repeats the first three lists in the driver's
// format; spec_test.go fails when the two disagree.

// defaultSeed drives every input when -seed is not given; heldOutSeed is
// the second seed on which the two-set agreement (-selfcheck) was checked.
const (
	defaultSeed = 20090726 // DAC 2009
	heldOutSeed = 77003
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"fib", "1.35 M spawns of ~140 ns: sched spawn/sync, frame freelists and deque push/pop are all of T_1; the workload for spawn-path changes"},
	{"matmul", "n=512 cilk_for over coarse rows: the user kernel does the work and the runtime almost none; predicted not to move for scheduler changes"},
	{"loop_steps", "500 back-to-back pfor.Reduce steps over 2^16 light iterations: range tasks, reducer views, and one steal+split+park/wake per step at P=2"},
	{"fib_observed", "fib on a runtime built WithObserver: the same code with instrumentation armed; shows what observers cost and what a seam change shifts"},
	{"submit_mix", "closed loop of nproc in-process clients, seeded sinsum mix over three tenants with admission armed: Submit, lane pickup and park/wake dominate"},
	{"serve_http", "examples/serve as a subprocess, nproc keep-alive connections, seeded /sinsum + /matmul mix with X-Tenant: everything submit_mix has plus HTTP"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics; every workload reports every one. A
// stretch is a slot's Σ latency ÷ Σ serial time of the same requests. On the
// compute workloads a request is one whole problem, so t1_x = T_1/T_S and
// tp_x = T_P/T_S; on the serving workloads tp_x is mean latency under nproc
// closed-loop callers ÷ mean serial service time of the mix, and t1_x the
// same for one caller on a one-worker runtime or server. The bounds are
// minted from the measured spread of ten runs with ten seeds (README.md).
var endToEnd = []metricSpec{
	{"t1_x", "x", "lower", 0.10},
	{"tp_x", "x", "lower", 0.15},
	{"goodput_x", "cores", "higher", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// layerSpec is a per-layer metric and the prediction written down before
// measuring: which end-to-end metric it should move on which workload, and
// which it should leave alone.
type layerSpec struct {
	metricSpec
	Layer     string
	Moves     string
	NotMoving string
}

func layer(name, unit, better, layer, moves, not string) layerSpec {
	return layerSpec{metricSpec{Name: name, Unit: unit, Better: better}, layer, moves, not}
}

var perLayer = []layerSpec{
	layer("deque.pushpop_ns", "ns", "lower", "internal/deque", "t1_x on fib", "matmul"),
	layer("deque.steal_ns", "ns", "lower", "internal/deque", "tp_x on loop_steps", "matmul"),
	layer("deque.stealbatch_ns_per_item", "ns", "lower", "internal/deque", "tp_x on loop_steps", "matmul"),
	layer("sched.spawn_sync_ns", "ns", "lower", "internal/sched spawn", "t1_x, tp_x on fib, fib_observed (T_1 ≈ spawns × ns)", "matmul, submit_mix"),
	layer("sched.spawn_allocs", "count", "lower", "internal/sched spawn", "t1_x on fib", "matmul, submit_mix"),
	layer("spawns", "count", "lower", "internal/sched spawn", "t1_x, tp_x on fib", "matmul"),
	layer("pool_refills", "count", "lower", "internal/sched spawn", "t1_x on fib", "matmul"),
	layer("steals", "count", "lower", "internal/sched hunt/park", "tp_x on loop_steps", "any t1_x"),
	layer("steal_attempts", "count", "lower", "internal/sched hunt/park", "tp_x on loop_steps", "any t1_x"),
	layer("steal_hit_ratio", "ratio", "higher", "internal/sched hunt/park", "tp_x on loop_steps", "any t1_x"),
	layer("failed_sweeps", "count", "lower", "internal/sched hunt/park", "tp_x on loop_steps; tp_x on submit_mix", "any t1_x"),
	layer("sched.wake_us", "us", "lower", "internal/sched hunt/park", "tp_x on submit_mix", "any t1_x on compute"),
	layer("sched.submit_call_us", "us", "lower", "internal/sched inject/Submit", "tp_x, goodput_x on submit_mix, serve_http", "fib, matmul"),
	layer("sched.queue_wait_us", "us", "lower", "internal/sched inject/Submit", "tp_x, goodput_x on submit_mix, serve_http", "fib, matmul"),
	layer("sched.submit_rtt_us", "us", "lower", "internal/sched inject/Submit", "tp_x, goodput_x on submit_mix, serve_http", "fib, matmul"),
	layer("pfor.chunk_ns", "ns", "lower", "internal/pfor + loop.go", "t1_x on loop_steps", "fib"),
	layer("chunks_peeled", "count", "lower", "internal/pfor + loop.go", "t1_x on loop_steps", "fib"),
	layer("loop_splits", "count", "lower", "internal/pfor + loop.go", "tp_x on loop_steps", "fib"),
	layer("range_steals", "count", "lower", "internal/pfor + loop.go", "tp_x on loop_steps", "fib"),
	layer("hyper.view_ns", "ns", "lower", "internal/hyper", "t1_x on loop_steps", "fib, matmul"),
	layer("hyper.reduce_ns_per_iter", "ns", "lower", "internal/hyper", "t1_x on loop_steps", "fib, matmul"),
	layer("observer_cost_x", "x", "lower", "internal/obs", "tp_x on fib_observed only", "fib"),
	layer("serve.http_rtt_us", "us", "lower", "examples/serve", "tp_x on serve_http", "submit_mix"),
	layer("serve.http_overhead_us", "us", "lower", "examples/serve", "tp_x on serve_http", "submit_mix"),
	layer("trace_overhead_x", "x", "lower", "cmd/cilkbench", "nothing: the cost of the traced run itself", "every end-to-end metric (measured untraced)"),
}
