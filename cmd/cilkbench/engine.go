package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cilkgo"
)

// A workload is a set of request kinds, a seeded schedule over them, and
// three ways of executing a request: the serial elision (a plain Go call in
// this process), the platform on one worker, and the platform on nproc
// workers. Every measurement is a ratio of a platform latency to the serial
// time of the same kind taken moments earlier in the same block, so what the
// hypervisor steals from both cancels.
//
// The compute workloads are the degenerate case: one kind (the whole
// problem), one caller, one request per slot. The serving workloads have
// several kinds, nproc callers and slots that last a fixed time.

// kind is one request the workload can issue.
type kind struct {
	name   string
	serial func() float64                // the serial elision
	par    func(*cilkgo.Context) float64 // the same program on the platform
	path   string                        // the same program behind examples/serve
	want   float64                       // oracle: serial()'s value, computed at set-up
}

// request is one entry of the seeded schedule.
type request struct {
	kind   int
	tenant int
}

// tenants are the labels requests carry; the classes are the ones
// examples/serve maps them to by default, so both serving workloads
// exercise all three injection lanes.
var tenants = []struct {
	name string
	qos  cilkgo.QoSClass
}{
	{"pro", cilkgo.QoSInteractive},
	{"std", cilkgo.QoSBatch},
	{"free", cilkgo.QoSBestEffort},
}

// arm executes requests one way. do returns the request's value; a traced
// call (rec != nil) also records the request's spans.
type arm interface {
	do(k *kind, rq request, id int64, rec *recorder) (float64, error)
	// counters returns the arm's cumulative scheduler counters, for the
	// traced run's per-request counts.
	counters() (map[string]int64, error)
	close() error
}

// slots is how long each phase of a block lasts. A zero platform slot means
// "exactly one request per caller".
type slots struct {
	serial time.Duration // serial calibration, split evenly over the kinds
	one    time.Duration // one caller on the one-worker arm
	par    time.Duration // callers on the nproc-worker arm
}

// plan is a workload's definition, produced from the seed by its builder.
type plan struct {
	kinds    []kind
	schedule []request
	callers  int // concurrent callers on the nproc-worker arm
	slots    slots
	// startArm starts the platform with the given number of workers.
	startArm func(workers int) (arm, error)
}

// instance is a set-up workload: inputs generated, arms started, warm.
type instance struct {
	plan
	one, par arm
	cursor   atomic.Int64 // next schedule entry
	reqID    atomic.Int64
}

// tally counts operations for fail_share.
type tally struct {
	attempted, failed int
}

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// count records one operation's outcome.
func (t *tally) count(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// setUp computes the oracle values, starts both arms, issues every kind once
// on each, and runs one block with quarter-length slots, which takes caches,
// freelists, connections, heap growth and lazy initialisation out of the
// timed region. The plan already holds the generated inputs.
func setUp(p plan, procs int) (*instance, tally, error) {
	in := &instance{plan: p}
	for i := range in.kinds {
		in.kinds[i].want = in.kinds[i].serial()
	}
	var err error
	if in.one, err = p.startArm(1); err != nil {
		return nil, tally{}, err
	}
	if in.par, err = p.startArm(procs); err != nil {
		in.one.close()
		return nil, tally{}, err
	}
	var t tally
	for i := range in.kinds {
		for _, a := range []arm{in.one, in.par} {
			_, ok := in.check(a, request{kind: i, tenant: i % len(tenants)}, nil)
			t.count(ok)
		}
	}
	full := in.slots
	in.slots = slots{serial: full.serial / 4, one: full.one / 4, par: full.par / 4}
	warm := in.block(nil)
	t.add(warm.tally)
	in.slots = full
	return in, t, nil
}

func (in *instance) close() error {
	err := in.one.close()
	if e := in.par.close(); err == nil {
		err = e
	}
	return err
}

// check issues one request on a, compares the reply with the oracle, and
// returns the request's latency and whether the reply was right.
func (in *instance) check(a arm, rq request, rec *recorder) (time.Duration, bool) {
	k := &in.kinds[rq.kind]
	t0 := time.Now()
	got, err := a.do(k, rq, in.reqID.Add(1), rec)
	lat := time.Since(t0)
	if err != nil || got != k.want {
		if failures.Add(1) <= 5 {
			fmt.Fprintf(stderr, "cilkbench: %s: got %v, want %v, err %v\n", k.name, got, k.want, err)
		}
		return lat, false
	}
	return lat, true
}

// failures limits how many mismatches are spelled out on standard error.
var failures atomic.Int64

// obs is one correct reply: which kind it was and how long it took.
type obs struct {
	kind int
	lat  float64 // seconds
}

// slotObs is what one platform slot observed.
type slotObs struct {
	replies []obs
	wall    float64 // seconds
}

// block is the raw record of one [serial calibration][one worker][nproc
// workers] round; reduce forms the ratios.
type block struct {
	serial []float64 // seconds per call of each kind's serial elision
	one    slotObs
	par    slotObs
	traced bool
	tally
}

// calibrate times each kind's serial elision, repeated until it has filled
// its share of the serial slot (at least one call), and returns the mean
// time per call in seconds.
func (in *instance) calibrate(t *tally) []float64 {
	per := in.slots.serial / time.Duration(len(in.kinds))
	out := make([]float64, len(in.kinds))
	for i := range in.kinds {
		k := &in.kinds[i]
		start := time.Now()
		n := 0
		for {
			t.count(k.serial() == k.want)
			n++
			if time.Since(start) >= per {
				break
			}
		}
		out[i] = time.Since(start).Seconds() / float64(n)
	}
	return out
}

// runSlot drives callers closed-loop callers against a for d (or for one
// request each when d is zero). Every caller takes the next schedule entry,
// issues it, waits for the reply, checks it, and repeats.
func (in *instance) runSlot(a arm, callers int, d time.Duration, rec *recorder, t *tally) slotObs {
	var mu sync.Mutex
	var res slotObs
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var replies []obs
			var loc tally
			for {
				rq := in.schedule[int(in.cursor.Add(1)-1)%len(in.schedule)]
				lat, ok := in.check(a, rq, rec)
				loc.count(ok)
				if ok {
					replies = append(replies, obs{rq.kind, lat.Seconds()})
				}
				if time.Since(start) >= d {
					break
				}
			}
			mu.Lock()
			t.add(loc)
			res.replies = append(res.replies, replies...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	return res
}

// block runs one [serial][one worker][nproc workers] round.
func (in *instance) block(rec *recorder) block {
	b := block{traced: rec != nil}
	b.serial = in.calibrate(&b.tally)
	b.one = in.runSlot(in.one, 1, in.slots.one, rec, &b.tally)
	b.par = in.runSlot(in.par, in.callers, in.slots.par, rec, &b.tally)
	return b
}

// blockSample is one block reduced to ratios. The ratios are the gated
// quantities; the absolute times ride along as diagnostics.
type blockSample struct {
	T1x      float64   `json:"t1_x"`           // stretch, one-worker arm
	TPx      float64   `json:"tp_x"`           // stretch, nproc arm
	Goodput  float64   `json:"goodput_x"`      // serial seconds of correct replies per second, nproc arm
	SerialUS []float64 `json:"kind_serial_us"` // this block's own serial time of each kind
	OneMS    float64   `json:"one_ms"`         // median latency, one-worker arm
	ParMS    float64   `json:"par_ms"`         // median latency, nproc arm
	RPS      float64   `json:"rps"`            // correct replies per second, nproc arm
	Traced   bool      `json:"traced,omitempty"`

	stretches []float64 // every nproc-arm request's stretch
}

// reduce turns raw blocks into per-block ratios. A slot's stretch is its
// mean latency over the mean serial time of the same requests, Σ latency ÷
// Σ serial(kind): for a compute workload that is T/T_S; for a serving mix it
// weights each request by its work. The per-request median and the
// count-weighted mean were tried and rejected as gated statistics: the small
// requests' latency is bimodal (a spinning worker picks a root up in 2 µs, a
// parked one in 20 µs; the waiter's wake-up likewise), so their median jumps
// between modes from block to block (spread 20% and more between runs of the
// same code) and their mean follows the modes' mix (spread 10%). The pooled
// per-request percentiles are still printed as diagnostics.
func reduce(blocks []block) []blockSample {
	out := make([]blockSample, len(blocks))
	for i, b := range blocks {
		s := blockSample{Traced: b.traced}
		stretch := func(o slotObs, keep bool) (x, medianMS, served float64) {
			var lat float64
			var lats []float64
			for _, r := range o.replies {
				lat += r.lat
				served += b.serial[r.kind]
				lats = append(lats, r.lat*1e3)
				if keep {
					s.stretches = append(s.stretches, r.lat/b.serial[r.kind])
				}
			}
			return lat / served, median(lats), served
		}
		var served float64
		s.T1x, s.OneMS, _ = stretch(b.one, false)
		s.TPx, s.ParMS, served = stretch(b.par, true)
		s.Goodput = served / b.par.wall
		s.RPS = float64(len(b.par.replies)) / b.par.wall
		for _, v := range b.serial {
			s.SerialUS = append(s.SerialUS, v*1e6)
		}
		out[i] = s
	}
	return out
}

// rtArm is the platform in this process: one long-lived runtime, a request
// is Submit + Wait.
type rtArm struct {
	rt *cilkgo.Runtime
}

func (a *rtArm) do(k *kind, rq request, id int64, rec *recorder) (float64, error) {
	tn := tenants[rq.tenant]
	if rec == nil {
		var v float64
		tk, err := a.rt.Submit(context.Background(), func(c *cilkgo.Context) { v = k.par(c) },
			cilkgo.WithTenant(tn.name), cilkgo.WithQoS(tn.qos))
		if err != nil {
			return 0, err
		}
		return v, tk.Wait()
	}
	// Traced: the same call with per-run accounting on and a clock read at
	// each layer boundary the benchmark can see from outside the runtime.
	var v float64
	var b0, b1 time.Time
	t0 := time.Now()
	tk, err := a.rt.Submit(context.Background(), func(c *cilkgo.Context) {
		b0 = time.Now()
		v = k.par(c)
		b1 = time.Now()
	}, cilkgo.WithTenant(tn.name), cilkgo.WithQoS(tn.qos), cilkgo.WithStats())
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	err = tk.Wait()
	t2 := time.Now()
	// The root waited in its lane for QueueLatency, ending at pickup, which
	// is when the body started.
	rec.request(id, a.rt.Workers(), "request:"+k.name, t0, t2,
		rec.child("submit", t0, t1),
		rec.child("queue", b0.Add(-tk.QueueLatency()), b0),
		rec.child("run", b0, b1))
	return v, err
}

func (a *rtArm) counters() (map[string]int64, error) { return a.rt.Metrics(), nil }

func (a *rtArm) close() error {
	a.rt.Shutdown()
	return nil
}
