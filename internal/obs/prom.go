package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"cilkgo/internal/sched"
	"cilkgo/internal/trace"
)

// This file renders the runtime's counters and histograms in the Prometheus
// text exposition format (version 0.0.4): `# TYPE` headers, cumulative
// histogram buckets with `le` labels in seconds, per-worker series labelled
// {worker="N"}. No client library — the format is a dozen lines of fmt.

// promCounters are the Metrics() keys exported as counters; everything else
// is a gauge. Kept in sync with sched.Stats documentation.
var promCounters = map[string]bool{
	"spawns":                   true,
	"steals":                   true,
	"steal_attempts":           true,
	"steal_batches":            true,
	"tasks_stolen_batched":     true,
	"failed_sweeps":            true,
	"tasks_run":                true,
	"tasks_skipped":            true,
	"loop_splits":              true,
	"chunks_peeled":            true,
	"range_steals":             true,
	"pool_refills":             true,
	"pool_spills":              true,
	"admission_admitted":       true,
	"admission_rejected_load":  true,
	"admission_rejected_quota": true,
	"runs_submitted":           true,
	"runs_canceled":            true,
	"mem_budget_cancels":       true,
	"mem_pressure_rejected":    true,
	"panics_quarantined":       true,
	"stalls":                   true,
	"san_violations":           true,
	"san_faults_injected":      true,
}

// WriteMetrics writes the full Prometheus scrape: every sched.Metrics
// counter under the cilk_ prefix (per-worker breakdowns as {worker="N"}
// series), the runtime's live latency histograms, and — when reg is non-nil
// — the registry's run totals and run-latency histogram.
func WriteMetrics(w io.Writer, rt *sched.Runtime, reg *Registry) error {
	m := rt.Metrics()
	// Split flat keys from per-worker keys ("worker.N.key").
	flat := map[string]int64{}
	workers := map[string]map[string]int64{} // key -> worker id -> value
	for k, v := range m {
		if rest, ok := strings.CutPrefix(k, "worker."); ok {
			id, key, ok := strings.Cut(rest, ".")
			if !ok {
				continue
			}
			if workers[key] == nil {
				workers[key] = map[string]int64{}
			}
			workers[key][id] = v
			continue
		}
		flat[k] = v
	}
	bw := &errWriter{w: w}
	for _, k := range sortedKeys(flat) {
		typ := "gauge"
		if promCounters[k] {
			typ = "counter"
		}
		bw.printf("# TYPE cilk_%s %s\ncilk_%s %d\n", k, typ, k, flat[k])
	}
	for _, k := range sortedKeys(workers) {
		typ := "gauge"
		if promCounters[k] {
			typ = "counter"
		}
		bw.printf("# TYPE cilk_worker_%s %s\n", k, typ)
		for _, id := range sortedKeys(workers[k]) {
			bw.printf("cilk_worker_%s{worker=%q} %d\n", k, id, workers[k][id])
		}
	}
	hists := rt.LatencyHistograms()
	for _, name := range sortedKeys(hists) {
		writeHistogram(bw, "cilk_"+name+"_seconds", "", hists[name])
	}
	if reg != nil {
		runs, errs := reg.Totals()
		bw.printf("# TYPE cilk_runs_completed counter\ncilk_runs_completed %d\n", runs)
		bw.printf("# TYPE cilk_runs_errored counter\ncilk_runs_errored %d\n", errs)
		writeHistogram(bw, "cilk_run_latency_seconds", "", reg.RunLatency())

		// Serving dimensions: completed-run series per QoS class and per
		// tenant (see Registry.ClassStats/TenantStats).
		if cs := reg.ClassStats(); len(cs) > 0 {
			bw.printf("# TYPE cilk_class_runs_completed counter\n")
			for _, c := range cs {
				bw.printf("cilk_class_runs_completed{class=%q} %d\n", c.Class, c.Runs)
			}
			bw.printf("# TYPE cilk_class_runs_errored counter\n")
			for _, c := range cs {
				bw.printf("cilk_class_runs_errored{class=%q} %d\n", c.Class, c.Errs)
			}
			bw.printf("# TYPE cilk_class_run_latency_seconds histogram\n")
			for _, c := range cs {
				writeHistogramSeries(bw, "cilk_class_run_latency_seconds", fmt.Sprintf("class=%q", c.Class), c.Latency)
			}
			bw.printf("# TYPE cilk_class_queue_wait_seconds histogram\n")
			for _, c := range cs {
				writeHistogramSeries(bw, "cilk_class_queue_wait_seconds", fmt.Sprintf("class=%q", c.Class), c.QueueWait)
			}
		}
		if ts := reg.TenantStats(); len(ts) > 0 {
			bw.printf("# TYPE cilk_tenant_runs_completed counter\n")
			for _, t := range ts {
				bw.printf("cilk_tenant_runs_completed{tenant=%q} %d\n", t.Tenant, t.Runs)
			}
			bw.printf("# TYPE cilk_tenant_runs_errored counter\n")
			for _, t := range ts {
				bw.printf("cilk_tenant_runs_errored{tenant=%q} %d\n", t.Tenant, t.Errs)
			}
			bw.printf("# TYPE cilk_tenant_queue_wait_seconds_total counter\n")
			for _, t := range ts {
				bw.printf("cilk_tenant_queue_wait_seconds_total{tenant=%q} %s\n", t.Tenant, formatSeconds(t.QueuedTotal.Seconds()))
			}
		}
	}

	// Live serving load (sched.LoadReport): instantaneous queue/running
	// gauges per tenant. The runtime-wide gauges (queued_*, runs_running)
	// and cumulative admission_* counters are already in Metrics() above.
	load := rt.LoadReport()
	bw.printf("# TYPE cilk_parked gauge\ncilk_parked %d\n", load.Parked)
	if len(load.Tenants) > 0 {
		bw.printf("# TYPE cilk_tenant_queued gauge\n")
		for _, t := range load.Tenants {
			bw.printf("cilk_tenant_queued{tenant=%q} %d\n", t.Tenant, t.Queued)
		}
		bw.printf("# TYPE cilk_tenant_running gauge\n")
		for _, t := range load.Tenants {
			bw.printf("cilk_tenant_running{tenant=%q} %d\n", t.Tenant, t.Running)
		}
		bw.printf("# TYPE cilk_tenant_memory_bytes gauge\n")
		for _, t := range load.Tenants {
			bw.printf("cilk_tenant_memory_bytes{tenant=%q} %d\n", t.Tenant, t.Memory)
		}
		bw.printf("# TYPE cilk_tenant_mem_ewma_bytes gauge\n")
		for _, t := range load.Tenants {
			bw.printf("cilk_tenant_mem_ewma_bytes{tenant=%q} %d\n", t.Tenant, t.MemEWMA)
		}
		bw.printf("# TYPE cilk_tenant_admitted counter\n")
		for _, t := range load.Tenants {
			bw.printf("cilk_tenant_admitted{tenant=%q} %d\n", t.Tenant, t.Admitted)
		}
		bw.printf("# TYPE cilk_tenant_rejected counter\n")
		for _, t := range load.Tenants {
			bw.printf("cilk_tenant_rejected{tenant=%q} %d\n", t.Tenant, t.Rejected)
		}
	}
	return bw.err
}

// writeHistogram emits one Prometheus histogram — its TYPE header followed
// by cumulative _bucket series with le bounds in seconds, then _sum and
// _count. labels, when non-empty, is a rendered label pair
// ("class=\"batch\"") added to every series.
func writeHistogram(bw *errWriter, name, labels string, h trace.Histogram) {
	bw.printf("# TYPE %s histogram\n", name)
	writeHistogramSeries(bw, name, labels, h)
}

// writeHistogramSeries emits one labelled series set of a histogram without
// the TYPE header, so several label values can share one header.
func writeHistogramSeries(bw *errWriter, name, labels string, h trace.Histogram) {
	sep := ""
	if labels != "" {
		sep = labels + ","
	}
	var cum int64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		bw.printf("%s_bucket{%sle=%q} %d\n", name, sep, formatSeconds(float64(b)/1e9), cum)
	}
	if len(h.Counts) > len(h.Bounds) {
		cum += h.Counts[len(h.Bounds)]
	}
	bw.printf("%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, cum)
	if labels != "" {
		bw.printf("%s_sum{%s} %s\n", name, labels, formatSeconds(h.Sum.Seconds()))
		bw.printf("%s_count{%s} %d\n", name, labels, h.N)
	} else {
		bw.printf("%s_sum %s\n", name, formatSeconds(h.Sum.Seconds()))
		bw.printf("%s_count %d\n", name, h.N)
	}
}

// formatSeconds renders a bound in seconds the way Prometheus expects:
// shortest round-trip decimal.
func formatSeconds(s float64) string {
	return strconv.FormatFloat(s, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// errWriter latches the first write error so the emit loops stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
