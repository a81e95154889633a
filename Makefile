GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-layout bench-serve prof-spawn stress-deque fuzz-sched fuzz-sched-long clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full suite, plus the scheduler and trace packages under the race detector
# (the tracer's lock-free drain and the per-run counters are the parts most
# worth hammering with -race).
test: vet
	$(GO) test ./...
	$(GO) test -race -count=1 ./internal/sched/... ./internal/trace/... ./internal/pfor/...

race:
	$(GO) test -race -count=1 ./...

# The repository's one benchmark (cmd/cilkbench, a Go module of its own):
# six workloads, each metric a ratio to the serial elision timed in the same
# block. For one workload or the traced per-layer run, call the script
# directly: bash cmd/cilkbench/run.sh --workload fib --trace 1.
bench:
	bash cmd/cilkbench/run.sh

# cilkbench at tiny sizes plus its unit tests — the root module's
# `go test ./...` does not see that module.
bench-smoke:
	$(GO) run -C cmd/cilkbench . -smoke
	cd cmd/cilkbench && $(GO) test ./...

# Code placement of the benchmark's hot functions: builds .bench_build/cilkbench
# exactly as cmd/cilkbench/run.sh does and prints each function's address mod
# 64. Go aligns functions to 32 bytes, so a phase is 0 or 32, and a change
# that adds or deletes code shifts every later function's phase; fib and
# loop_steps measurably follow the phases of workloads.Fib and the Reduce
# closure (EXPERIMENTS.md, "Code placement"). Run it in both checkouts of an
# A/B and report the phases alongside the timings.
BENCH_BUILD := $(CURDIR)/.bench_build
LAYOUT_FUNCS := cilkgo/internal/workloads.Fib \
	cilkgo/internal/pfor.Reduce[go.shape.int64].func1 \
	cilkgo/internal/hyper.(*Reducer[go.shape.int64]).View \
	cilkgo/internal/sched.resetFrame \
	cilkgo/internal/sched.(*worker).getFrame \
	cilkgo/internal/sched.(*worker).runTask
bench-layout:
	mkdir -p $(BENCH_BUILD)
	GOCACHE=$(BENCH_BUILD)/gocache GOPATH=$(BENCH_BUILD)/gopath XDG_CONFIG_HOME=$(BENCH_BUILD)/config \
		GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
		$(GO) build -C cmd/cilkbench -o $(BENCH_BUILD)/cilkbench .
	$(GO) tool nm -size -sort address $(BENCH_BUILD)/cilkbench | awk -v funcs='$(LAYOUT_FUNCS)' ' \
		BEGIN { n = split(funcs, f, " "); for (i = 1; i <= n; i++) want[f[i]] = 1 } \
		$$4 in want { \
			a = tolower(substr($$1, length($$1) - 1)); \
			lo = (index("0123456789abcdef", substr(a, 1, 1)) - 1) * 16 + index("0123456789abcdef", substr(a, 2, 1)) - 1; \
			printf "%-55s 0x%s  size %5d  mod64 %2d\n", $$4, $$1, $$2, lo % 64; found++ } \
		END { if (found != n) { print "bench-layout: found " found + 0 " of " n " functions" > "/dev/stderr"; exit 1 } }'

# Serving-latency gate: boot examples/serve with the demo tenant→class map
# and admission armed, sweep best-effort load 1×→10× with cmd/cilkload's
# open-loop Poisson generator, and record per-tenant latency percentiles into
# BENCH_serve.json. Gates twice: cilkload itself fails if interactive p99
# degraded more than 2× across the sweep (the DRR starvation-resistance
# claim — a within-run ratio, so machine-speed noise cancels), and benchjson
# -serve fails on a p99 regression vs. the committed
# bench_serve_baseline.json (absent baseline = pass-through, so the first
# run mints it). The benchjson default budget is 10%, but absolute tail
# percentiles on shared runners swing far wider than ratios do, so this
# recipe passes -maxp99 60 and the committed baseline is the per-series
# worst of three mint runs; the exact per-series delta is recorded in
# BENCH_serve.json either way.
SERVE_ADDR ?= 127.0.0.1:18080
bench-serve:
	$(GO) build -o /tmp/cilk-serve ./examples/serve
	/tmp/cilk-serve -addr $(SERVE_ADDR) \
		-tenantclass 'pro=interactive,free=best-effort' -quota 'free=16' & \
	pid=$$!; sleep 1; \
	$(GO) run ./cmd/cilkload -url http://$(SERVE_ADDR) \
		-tenants 'pro:interactive:10:/sinsum?n=800000,free:best-effort:50:/sinsum?n=100000' \
		-sweep 1,2,5,10 -dur 3s -maxdegrade 2.0 -seed 1 > /tmp/cilkload_serve.json; \
	load=$$?; kill $$pid 2>/dev/null; \
	$(GO) run ./cmd/benchjson -serve -maxp99 60 -baseline bench_serve_baseline.json \
		< /tmp/cilkload_serve.json > BENCH_serve.json; \
	status=$$?; if [ $$load -ne 0 ]; then exit $$load; fi; exit $$status

# Spawn fast-path profiles: CPU and allocation pprof captures of the
# spawn-dense fib shape, for digging into a spawn-path regression.
prof-spawn:
	$(GO) test -run '^$$' -bench 'BenchmarkSpawnFib' -benchtime 2s \
		-cpuprofile spawn_cpu.out -memprofile spawn_mem.out .
	@echo "inspect with: $(GO) tool pprof -top spawn_cpu.out"
	@echo "              $(GO) tool pprof -top -sample_index=alloc_objects spawn_mem.out"

# Deque stress: the grow-vs-thieves and batch-steal tests plus the scheduler's
# steal-path and lazy-loop exactly-once tests — and the fault-injected
# Gate/San suites (forced claim/CAS failures, stretched claim windows, seeded
# fault schedules) — repeated under the race detector (mirrors the CI job).
stress-deque:
	$(GO) test -race -count=5 -run 'StealBatch|GrowRacesThieves|ClearsSlots|UnparkWakeup|HuntPhase|RangeExactlyOnce|Gate|San' ./internal/deque/ ./internal/sched/
	$(GO) test -race -count=5 -run 'TestAlloc' .

# Schedule fuzzing: the pinned regression corpus plus 1000 fresh seeded fault
# schedules through the schedfuzz property suites with invariants and the
# stall watchdog armed. Deterministic: every trial is a pure function of its
# seed; reproduce a failure with `go run ./cmd/schedfuzz -run <seed> -v`.
fuzz-sched:
	$(GO) run ./cmd/schedfuzz -corpus cmd/schedfuzz/testdata/corpus.json -trials 1000 -seed 1

# Nightly long run: a large randomized sweep starting from a caller-supplied
# seed base (default 1; CI passes the run id) so successive nights cover new
# schedules.
FUZZ_SEED ?= 1
fuzz-sched-long:
	$(GO) run ./cmd/schedfuzz -trials 20000 -seed $(FUZZ_SEED) -stall 5s

clean:
	rm -rf .bench_build
	rm -f trace.json spawn_cpu.out spawn_mem.out cilkgo.test
