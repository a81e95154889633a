package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Spans of one request share Req; Parent is the ID of the span that
// caused this one (0 for a request's root span). Workers says which arm
// served the request. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int64  `json:"req"`
	Workers int    `json:"workers"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. It is safe for
// the concurrent client goroutines of a serving workload.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// request records a root span and its children in one locked append, so the
// hot path of a traced request takes the mutex once. children carry Start
// and End; IDs and parents are assigned here.
func (r *recorder) request(req int64, workers int, name string, start, end time.Time, children ...span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	root := span{ID: r.next, Req: req, Workers: workers, Name: name, Start: r.since(start), End: r.since(end)}
	r.spans = append(r.spans, root)
	for _, c := range children {
		r.next++
		c.ID, c.Parent, c.Req, c.Workers = r.next, root.ID, req, workers
		r.spans = append(r.spans, c)
	}
}

// child builds a child span for request from wall-clock bounds.
func (r *recorder) child(name string, start, end time.Time) span {
	return span{Name: name, Start: r.since(start), End: r.since(end)}
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other and
// may stick out of the parent; only covered time inside the parent counts).
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals clipped to
// [lo, hi].
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// layerTime is one span name's account over a traced run.
type layerTime struct {
	Count   int     `json:"count"`
	TotalUS timing  `json:"total_us"`
	SelfUS  timing  `json:"self_us"`
	Share   float64 `json:"self_share"` // of all recorded self time
}

// account groups spans by name into per-layer totals and self times.
func account(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	tot := make(map[string][]float64)
	slf := make(map[string][]float64)
	var all float64
	for _, s := range spans {
		tot[s.Name] = append(tot[s.Name], float64(s.End-s.Start)/1e3)
		slf[s.Name] = append(slf[s.Name], float64(self[s.ID])/1e3)
		all += float64(self[s.ID]) / 1e3
	}
	out := make(map[string]layerTime, len(tot))
	for name, xs := range tot {
		var sum float64
		for _, v := range slf[name] {
			sum += v
		}
		lt := layerTime{Count: len(xs), TotalUS: summarize(xs), SelfUS: summarize(slf[name])}
		if all > 0 {
			lt.Share = sum / all
		}
		out[name] = lt
	}
	return out
}

// traceFile is what cilkbench_trace.json holds.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Layers   map[string]layerTime `json:"layers"`
	Spans    []span               `json:"spans"`
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
