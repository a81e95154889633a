// Serve demonstrates the runtime as the compute engine of a multi-tenant
// HTTP server — the ROADMAP's production posture. One shared work-stealing
// runtime executes a cilk_for workload per request through the Submit API:
//
//   - every handler calls rt.Submit with the request context bounded by a
//     per-request budget, so an impatient client or an expired deadline
//     abandons the computation cooperatively (ErrCanceled /
//     ErrDeadlineExceeded → HTTP 499/504) instead of burning workers;
//   - the X-Tenant request header labels the computation: -tenantclass maps
//     tenants to QoS classes ("pro=interactive,free=best-effort"), so a
//     best-effort flood from one tenant cannot starve another tenant's
//     interactive traffic out of the sharded DRR injection lanes;
//   - -maxqueued/-maxactive/-quota arm admission control: a tenant over its
//     quota gets 429 with Retry-After, a server at capacity sheds with 503 —
//     both decided at Submit time, before any work is queued;
//   - -memsoft/-memhard arm the memory watermarks: above the soft watermark
//     best-effort submissions shed with 503, above the hard one the runtime
//     cancels the most over-footprint best-effort run; an X-Cilk-Mem-Budget
//     header (or ?mem= bytes) gives a request an enforced memory budget — a
//     run that exceeds it is cancelled with ErrMemoryBudget → HTTP 429;
//   - scheduler counters are published on /debug/vars via
//     cilkgo.PublishExpvar, and the introspection server (DebugHandler)
//     serves Prometheus metrics on /metrics — including per-class and
//     per-tenant series — plus the serving LoadReport on /debug/cilk/load;
//   - SIGINT/SIGTERM drains gracefully: the HTTP listener stops, then
//     Runtime.ShutdownDrain gives in-flight computations a bounded grace
//     period before cancelling them with ErrShutdown.
//
// Try it:
//
//	go run ./examples/serve -addr :8080 -statsheader \
//	    -tenantclass 'pro=interactive,free=best-effort' -quota 'free=16' &
//	curl 'localhost:8080/matmul?n=256'                      # anonymous → batch
//	curl -H 'X-Tenant: pro'  'localhost:8080/matmul?n=256'  # interactive lane
//	curl -H 'X-Tenant: free' 'localhost:8080/sinsum?n=100000'
//	curl 'localhost:8080/debug/cilk/load'                   # serving load (JSON)
//	curl 'localhost:8080/metrics'                           # Prometheus scrape
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cilkgo"
	"cilkgo/internal/workloads"

	_ "expvar" // registers /debug/vars on the default mux
)

var (
	addr        = flag.String("addr", ":8080", "listen address")
	workers     = flag.Int("workers", 0, "cilk workers (0 = one per processor)")
	budget      = flag.Duration("budget", 2*time.Second, "default per-request compute budget")
	drain       = flag.Duration("drain", 5*time.Second, "shutdown drain for in-flight requests")
	statsHeader = flag.Bool("statsheader", false, "attach an X-Cilk-Stats header (tasks, steals, parallelism) to every compute response")
	keepRuns    = flag.Int("keepruns", 64, "completed runs retained for /debug/cilk/runs")

	tenantClass = flag.String("tenantclass", "pro=interactive,free=best-effort",
		"comma-separated tenant=class map applied to the X-Tenant header (classes: interactive, batch, best-effort; unlisted tenants run as batch)")
	maxQueued = flag.Int("maxqueued", 0, "admission: max roots queued runtime-wide (0 = unlimited)")
	maxActive = flag.Int("maxactive", 0, "admission: max runs in flight runtime-wide (0 = unlimited)")
	quotaSpec = flag.String("quota", "", "comma-separated tenant=maxactive quotas, e.g. 'free=16' (empty = no per-tenant quotas)")
	memSoft   = flag.Int64("memsoft", 0, "admission: soft memory watermark in live bytes — above it best-effort submissions are shed (0 = off)")
	memHard   = flag.Int64("memhard", 0, "admission: hard memory watermark in live bytes — above it the most over-footprint best-effort run is cancelled (0 = off)")
)

// parseTenantClasses parses "pro=interactive,free=best-effort".
func parseTenantClasses(spec string) (map[string]cilkgo.QoSClass, error) {
	m := make(map[string]cilkgo.QoSClass)
	if spec == "" {
		return m, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		tenant, class, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad tenant=class pair %q", pair)
		}
		q, known := cilkgo.ParseQoS(class)
		if !known {
			return nil, fmt.Errorf("unknown QoS class %q for tenant %q", class, tenant)
		}
		m[tenant] = q
	}
	return m, nil
}

// parseQuotas parses "free=16,pro=64" into per-tenant MaxActive quotas.
func parseQuotas(spec string) (map[string]cilkgo.Quota, error) {
	if spec == "" {
		return nil, nil
	}
	m := make(map[string]cilkgo.Quota)
	for _, pair := range strings.Split(spec, ",") {
		tenant, limit, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad tenant=maxactive pair %q", pair)
		}
		n, err := strconv.Atoi(limit)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad quota for tenant %q: %q", tenant, limit)
		}
		m[tenant] = cilkgo.Quota{MaxActive: n}
	}
	return m, nil
}

func main() {
	flag.Parse()
	classes, err := parseTenantClasses(*tenantClass)
	if err != nil {
		log.Fatalf("-tenantclass: %v", err)
	}
	quotas, err := parseQuotas(*quotaSpec)
	if err != nil {
		log.Fatalf("-quota: %v", err)
	}

	opts := []cilkgo.Option{
		// The observer powers /metrics histograms (per-class and per-tenant
		// series included), /debug/cilk/runs, and the X-Cilk-Stats header;
		// tracing powers /debug/cilk/trace.
		cilkgo.WithObserver(cilkgo.NewObserver(*keepRuns)),
		cilkgo.WithTracing(),
	}
	if *workers > 0 {
		opts = append(opts, cilkgo.WithWorkers(*workers))
	}
	if *maxQueued > 0 || *maxActive > 0 || len(quotas) > 0 || *memSoft > 0 || *memHard > 0 {
		opts = append(opts, cilkgo.WithAdmission(cilkgo.AdmissionConfig{
			MaxQueued:           *maxQueued,
			MaxActive:           *maxActive,
			Tenants:             quotas,
			SoftMemoryWatermark: *memSoft,
			HardMemoryWatermark: *memHard,
		}))
	}
	rt := cilkgo.New(opts...)
	cilkgo.PublishExpvar("cilk", rt)

	mux := http.DefaultServeMux
	mux.HandleFunc("/matmul", handle(rt, classes, matmul))
	mux.HandleFunc("/sinsum", handle(rt, classes, sinsum))
	debug := cilkgo.DebugHandler(rt)
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/cilk/", debug)

	srv := &http.Server{Addr: *addr}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s (budget %v, drain %v)", *addr, *budget, *drain)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%v: draining", s)
	case err := <-errc:
		log.Fatalf("listener: %v", err)
	}

	// Stop accepting requests, then drain the runtime: computations still
	// in flight get up to -drain to finish before being cancelled with
	// ErrShutdown.
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if rt.ShutdownDrain(*drain) {
		log.Printf("drained cleanly")
	} else {
		log.Printf("drain deadline hit: in-flight computations cancelled")
	}
}

// handle wraps a workload so every request runs it via Submit under the
// request context bounded by the per-request budget, labelled with the
// X-Tenant header's tenant and its mapped QoS class, mapping admission and
// robustness-layer errors to HTTP statuses.
func handle(rt *cilkgo.Runtime, classes map[string]cilkgo.QoSClass, work func(c *cilkgo.Context, n int) float64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := 256
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 || v > 1<<20 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		b := *budget
		if s := r.URL.Query().Get("budget"); s != "" {
			v, err := time.ParseDuration(s)
			if err != nil || v <= 0 {
				http.Error(w, "bad budget", http.StatusBadRequest)
				return
			}
			b = v
		}
		tenant := r.Header.Get("X-Tenant")
		class := cilkgo.QoSBatch
		if q, ok := classes[tenant]; ok {
			class = q
		}
		// An X-Cilk-Mem-Budget header (or ?mem=, in bytes) declares and
		// enforces the request's memory budget: admission charges it and the
		// runtime cancels the run if its accounted live bytes exceed it.
		memSpec := r.Header.Get("X-Cilk-Mem-Budget")
		if s := r.URL.Query().Get("mem"); s != "" {
			memSpec = s
		}
		var memBudget int64
		if memSpec != "" {
			v, err := strconv.ParseInt(memSpec, 10, 64)
			if err != nil || v < 1 {
				http.Error(w, "bad memory budget (want bytes)", http.StatusBadRequest)
				return
			}
			memBudget = v
		}
		ctx, cancel := context.WithTimeout(r.Context(), b)
		defer cancel()

		runOpts := []cilkgo.RunOption{cilkgo.WithTenant(tenant), cilkgo.WithQoS(class)}
		if memBudget > 0 {
			runOpts = append(runOpts, cilkgo.WithMemoryBudget(memBudget))
		}
		if *statsHeader {
			runOpts = append(runOpts, cilkgo.WithStats())
		}
		var result float64
		start := time.Now()
		tk, err := rt.Submit(ctx, func(c *cilkgo.Context) { result = work(c, n) }, runOpts...)
		if err != nil {
			// Submission-time rejection: nothing was queued. Admission
			// rejections are the server's backpressure — tell the client to
			// come back rather than hammering a saturated queue.
			switch {
			case errors.Is(err, cilkgo.ErrQuota):
				w.Header().Set("Retry-After", "1")
				http.Error(w, fmt.Sprintf("tenant %q over quota", tenant), http.StatusTooManyRequests)
			case errors.Is(err, cilkgo.ErrAdmission):
				w.Header().Set("Retry-After", "1")
				http.Error(w, "server at capacity", http.StatusServiceUnavailable)
			case errors.Is(err, cilkgo.ErrShutdown):
				http.Error(w, "server draining", http.StatusServiceUnavailable)
			case errors.Is(err, cilkgo.ErrDeadlineExceeded), errors.Is(err, cilkgo.ErrCanceled):
				http.Error(w, "request expired before submission", 499)
			default:
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		err = tk.Wait()
		if *statsHeader {
			// Per-request accounting: the header summarizes this request's
			// own computation — tasks it ran, steals of its tasks, its lane
			// wait, and its online parallelism estimate (work/span, measured
			// while the parallel schedule ran).
			st := tk.Stats()
			hdr := fmt.Sprintf("tasks=%d steals=%d queued=%s", st.TasksRun, st.Steals, tk.QueueLatency())
			if st.Span > 0 {
				hdr += fmt.Sprintf(" parallelism=%.2f", float64(st.Work)/float64(st.Span))
			}
			w.Header().Set("X-Cilk-Stats", hdr)
		}
		elapsed := time.Since(start)
		switch {
		case err == nil:
			fmt.Fprintf(w, "result=%g n=%d elapsed=%v tenant=%q class=%s\n", result, n, elapsed, tenant, tk.Class())
		case errors.Is(err, cilkgo.ErrDeadlineExceeded):
			http.Error(w, fmt.Sprintf("compute budget %v exceeded after %v", b, elapsed),
				http.StatusGatewayTimeout)
		case errors.Is(err, cilkgo.ErrMemoryBudget):
			// The computation outgrew its declared budget (or was shed above
			// the hard memory watermark) — the client's footprint problem,
			// not the server's: 429, retry with a bigger budget or later.
			w.Header().Set("Retry-After", "1")
			http.Error(w, fmt.Sprintf("memory budget exceeded after %v", elapsed),
				http.StatusTooManyRequests)
		case errors.Is(err, cilkgo.ErrCanceled):
			// Client went away; 499 in nginx's dialect.
			http.Error(w, "client cancelled", 499)
		case errors.Is(err, cilkgo.ErrShutdown):
			http.Error(w, "server draining", http.StatusServiceUnavailable)
		default:
			// A quarantined panic: this request failed, the runtime is fine.
			var pe *cilkgo.PanicError
			if errors.As(err, &pe) {
				log.Printf("request panic quarantined: %v", pe)
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// matmul multiplies two n×n matrices with the cilk_for-based workload and
// returns a checksum element.
func matmul(c *cilkgo.Context, n int) float64 {
	a, b, out := workloads.NewMatrix(n), workloads.NewMatrix(n), workloads.NewMatrix(n)
	cilkgo.For(c, 0, n, func(c *cilkgo.Context, i int) {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64(i+j))
			b.Set(i, j, float64(i-j))
		}
	})
	workloads.MatMul(c, a, b, out)
	return out.At(n/2, n/2)
}

// sinsum fills an n-element array with sines in parallel (the paper's
// Fig. 1 loop) and folds the sum on the calling strand after the loop's
// implicit sync.
func sinsum(c *cilkgo.Context, n int) float64 {
	a := make([]float64, n)
	cilkgo.For(c, 0, n, func(c *cilkgo.Context, i int) {
		a[i] = math.Sin(float64(i))
	})
	var sum float64
	for _, v := range a {
		sum += v
	}
	return sum
}
