package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cilkgo/internal/sched"
)

// observedRuntime builds a runtime with an observer (and optionally tracing),
// executes a couple of runs so every endpoint has data, and returns the
// introspection handler wrapped in an httptest server.
func observedRuntime(t *testing.T, opts ...sched.Option) (*sched.Runtime, *Registry, *httptest.Server) {
	t.Helper()
	reg := NewRegistry(8)
	rt := sched.New(append([]sched.Option{sched.WithWorkers(2), sched.WithRunObserver(reg)}, opts...)...)
	t.Cleanup(rt.Shutdown)
	for i := 0; i < 3; i++ {
		if err := rt.Run(func(c *sched.Context) { fibSpin(c, 6, 50*time.Microsecond) }); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(Handler(rt))
	t.Cleanup(srv.Close)
	return rt, reg, srv
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// promLine matches the Prometheus text exposition grammar for the subset we
// emit: comments, bare samples, and labelled samples with numeric values.
var promLine = regexp.MustCompile(
	`^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]+="[^"]*"(,[a-zA-Z_]+="[^"]*")*\})? (-?[0-9.eE+-]+|\+Inf|NaN))$`)

func TestMetricsEndpoint(t *testing.T) {
	_, _, srv := observedRuntime(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// Every line must be grammatical.
	for i, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("line %d not valid exposition format: %q", i+1, line)
		}
	}
	// The core counters and the per-worker breakdown must be present.
	for _, want := range []string{
		"# TYPE cilk_spawns counter", "cilk_spawns ",
		`cilk_worker_steal_attempts{worker="0"}`,
		"# TYPE cilk_runs_completed counter", "cilk_runs_completed 3",
		"# TYPE cilk_run_latency_seconds histogram",
		"# TYPE cilk_steal_latency_seconds histogram",
		"# TYPE cilk_park_to_wake_seconds histogram",
		// Cumulative totals outside the steal/task family are counters too.
		"# TYPE cilk_pool_refills counter",
		"# TYPE cilk_pool_spills counter",
		"# TYPE cilk_admission_admitted counter",
		"# TYPE cilk_admission_rejected_load counter",
		"# TYPE cilk_admission_rejected_quota counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// Histogram buckets must be cumulative (monotone) and end at +Inf with
	// the _count value.
	checkHistogram(t, text, "cilk_run_latency_seconds")
	checkHistogram(t, text, "cilk_steal_latency_seconds")
}

// checkHistogram validates the cumulative-bucket contract of one emitted
// histogram: monotone counts, le bounds strictly increasing, +Inf == _count.
func checkHistogram(t *testing.T, text, name string) {
	t.Helper()
	var (
		prevCount   int64 = -1
		prevBound         = -1.0
		infCount    int64 = -1
		totalCount  int64 = -1
		seenBuckets int
	)
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{le=\"+Inf\"}"):
			v, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			infCount = v
		case strings.HasPrefix(line, name+"_bucket{le="):
			parts := strings.Fields(line)
			le := strings.TrimSuffix(strings.TrimPrefix(parts[0], name+`_bucket{le="`), `"}`)
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("bad le in %q: %v", line, err)
			}
			count, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil {
				t.Fatalf("bad count in %q: %v", line, err)
			}
			if bound <= prevBound {
				t.Errorf("%s: le bounds not increasing (%g after %g)", name, bound, prevBound)
			}
			if count < prevCount {
				t.Errorf("%s: bucket counts not cumulative (%d after %d)", name, count, prevCount)
			}
			prevBound, prevCount = bound, count
			seenBuckets++
		case strings.HasPrefix(line, name+"_count"):
			v, err := strconv.ParseInt(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			totalCount = v
		}
	}
	if seenBuckets == 0 {
		t.Fatalf("%s: no buckets emitted", name)
	}
	if infCount != totalCount {
		t.Errorf("%s: +Inf bucket %d != _count %d", name, infCount, totalCount)
	}
	if prevCount > infCount {
		t.Errorf("%s: last finite bucket %d exceeds +Inf %d", name, prevCount, infCount)
	}
}

func TestRunsEndpoint(t *testing.T) {
	_, _, srv := observedRuntime(t)
	resp, err := http.Get(srv.URL + "/debug/cilk/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Workers       int   `json:"workers"`
		RunsCompleted int64 `json:"runs_completed"`
		Recent        []struct {
			ID          int64 `json:"id"`
			Spawns      int64 `json:"spawns"`
			Scalability struct {
				Work        int64   `json:"work_ns"`
				Span        int64   `json:"span_ns"`
				Parallelism float64 `json:"parallelism"`
				Verdict     string  `json:"verdict"`
			} `json:"scalability"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("runs payload is not valid JSON: %v", err)
	}
	if out.Workers != 2 || out.RunsCompleted != 3 || len(out.Recent) != 3 {
		t.Fatalf("workers=%d runs=%d recent=%d, want 2/3/3", out.Workers, out.RunsCompleted, len(out.Recent))
	}
	last := out.Recent[len(out.Recent)-1]
	if last.Spawns == 0 || last.Scalability.Work == 0 || last.Scalability.Span == 0 {
		t.Errorf("last run lacks observed data: %+v", last)
	}
	if last.Scalability.Work < last.Scalability.Span {
		t.Errorf("work %d < span %d", last.Scalability.Work, last.Scalability.Span)
	}
	if last.Scalability.Verdict == "" {
		t.Error("empty verdict")
	}
}

func TestProfileEndpoint(t *testing.T) {
	_, reg, srv := observedRuntime(t)
	status, body := get(t, srv.URL+"/debug/cilk/profile")
	if status != 200 {
		t.Fatalf("status %d: %s", status, body)
	}
	for _, want := range []string{"Parallelism profile", "Work (T1)", "lower-est", "measured"} {
		if !strings.Contains(body, want) {
			t.Errorf("profile missing %q:\n%s", want, body)
		}
	}
	// Addressing a specific retained run works; a forgotten one is a 404.
	last, _ := reg.Last()
	if status, _ := get(t, srv.URL+"/debug/cilk/profile?id="+strconv.FormatInt(last.ID, 10)); status != 200 {
		t.Errorf("profile?id=%d status %d", last.ID, status)
	}
	if status, _ := get(t, srv.URL+"/debug/cilk/profile?id=999999"); status != 404 {
		t.Errorf("profile of unknown run: status %d, want 404", status)
	}
	if status, _ := get(t, srv.URL+"/debug/cilk/profile?id=bogus"); status != 400 {
		t.Errorf("profile with bad id: status %d, want 400", status)
	}
}

func TestTraceEndpoint(t *testing.T) {
	_, _, srv := observedRuntime(t, sched.WithTracing())
	resp, err := http.Get(srv.URL + "/debug/cilk/trace?dur=100ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid Chrome JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Errorf("unexpected trace envelope: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	if status, body := get(t, srv.URL+"/debug/cilk/trace?dur=nonsense"); status != 400 {
		t.Errorf("bad dur: status %d (%s), want 400", status, body)
	}
}

func TestTraceEndpointWithoutTracing(t *testing.T) {
	_, _, srv := observedRuntime(t)
	if status, body := get(t, srv.URL+"/debug/cilk/trace?dur=10ms"); status != http.StatusServiceUnavailable {
		t.Errorf("trace without WithTracing: status %d (%s), want 503", status, body)
	}
}

func TestStallsAndIndexEndpoints(t *testing.T) {
	_, _, srv := observedRuntime(t)
	status, body := get(t, srv.URL+"/debug/cilk/stalls")
	if status != 200 {
		t.Fatalf("stalls status %d", status)
	}
	var stalls struct {
		Stall     *json.RawMessage `json:"stall"`
		Violation *json.RawMessage `json:"violation"`
	}
	if err := json.Unmarshal([]byte(body), &stalls); err != nil {
		t.Errorf("stalls payload is not valid JSON: %v", err)
	}
	status, body = get(t, srv.URL+"/debug/cilk/")
	if status != 200 || !strings.Contains(body, "/debug/cilk/runs") {
		t.Errorf("index status %d body %q", status, body)
	}
}

func TestEndpointsWithoutObserver(t *testing.T) {
	rt := sched.New(sched.WithWorkers(1))
	defer rt.Shutdown()
	srv := httptest.NewServer(Handler(rt))
	defer srv.Close()
	for _, path := range []string{"/debug/cilk/runs", "/debug/cilk/profile"} {
		status, body := get(t, srv.URL+path)
		if status != 404 || !strings.Contains(body, "observer") {
			t.Errorf("%s without observer: status %d body %q, want 404 with hint", path, status, body)
		}
	}
	// Metrics still work — they need only the runtime's counters.
	if status, _ := get(t, srv.URL+"/metrics"); status != 200 {
		t.Errorf("metrics without observer: status %d", status)
	}
}

func TestLoadEndpoint(t *testing.T) {
	rt, _, srv := observedRuntime(t)
	// Complete one labelled submission so the serving dimensions have data.
	tk, err := rt.Submit(context.Background(), func(c *sched.Context) { fibSpin(c, 5, 10*time.Microsecond) },
		sched.WithTenant("acme"), sched.WithQoS(sched.QoSInteractive))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}

	code, body := get(t, srv.URL+"/debug/cilk/load")
	if code != http.StatusOK {
		t.Fatalf("/debug/cilk/load = %d\n%s", code, body)
	}
	var out struct {
		Workers       int            `json:"Workers"`
		QueuedByClass map[string]int `json:"QueuedByClass"`
		Admitted      int64          `json:"Admitted"`
		Tenants       []struct {
			Tenant   string
			Admitted int64
		} `json:"Tenants"`
		Classes []struct {
			Class string
			Runs  int64
		} `json:"classes"`
		TenantTotals []struct {
			Tenant string
			Runs   int64
		} `json:"tenant_totals"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", out.Workers)
	}
	if out.Admitted < 1 {
		t.Fatalf("Admitted = %d, want >= 1", out.Admitted)
	}
	if _, ok := out.QueuedByClass["interactive"]; !ok {
		t.Fatalf("QueuedByClass missing interactive: %s", body)
	}
	foundTenant := false
	for _, tn := range out.Tenants {
		if tn.Tenant == "acme" && tn.Admitted == 1 {
			foundTenant = true
		}
	}
	if !foundTenant {
		t.Fatalf("acme tenant missing from load report: %s", body)
	}
	foundClass := false
	for _, c := range out.Classes {
		if c.Class == "interactive" && c.Runs >= 1 {
			foundClass = true
		}
	}
	if !foundClass {
		t.Fatalf("interactive class missing from completed-run stats: %s", body)
	}
	foundTotals := false
	for _, tn := range out.TenantTotals {
		if tn.Tenant == "acme" && tn.Runs == 1 {
			foundTotals = true
		}
	}
	if !foundTotals {
		t.Fatalf("acme missing from tenant totals: %s", body)
	}
}

func TestMetricsServingSeries(t *testing.T) {
	rt, _, srv := observedRuntime(t)
	tk, err := rt.Submit(context.Background(), func(c *sched.Context) { fibSpin(c, 5, 10*time.Microsecond) },
		sched.WithTenant("acme"), sched.WithQoS(sched.QoSInteractive))
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	code, body := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`cilk_class_runs_completed{class="interactive"} 1`,
		`cilk_class_run_latency_seconds_count{class="interactive"} 1`,
		`cilk_class_queue_wait_seconds_count{class="interactive"} 1`,
		`cilk_tenant_runs_completed{tenant="acme"} 1`,
		`cilk_tenant_admitted{tenant="acme"} 1`,
		"# TYPE cilk_parked gauge",
		"cilk_queued_interactive 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// Every line must still parse as valid exposition format.
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line: %q", line)
		}
	}
}
