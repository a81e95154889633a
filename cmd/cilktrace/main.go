// Cilktrace runs a workload on the parallel work-stealing runtime with
// per-worker event tracing enabled, writes a Chrome trace-event JSON file
// (one track per worker; open in Perfetto or chrome://tracing), and prints
// an ASCII report: per-worker utilization, steal-latency histogram, the
// live-frames high-water series, and — where an analytic dag model exists —
// Cilkview's *predicted* parallelism next to the *observed* one, so the
// paper's §5 burden analysis can finally be compared against a real
// schedule.
//
// The acceptance smoke test from the issue:
//
//	cilktrace -workload fib -n 30 -workers 4 -o trace.json
//
// With -url, cilktrace instead captures a trace from a live server exposing
// the introspection endpoints (cilkgo.DebugHandler, as examples/serve
// mounts): it asks /debug/cilk/trace to record the next -dur of whatever the
// server is executing and saves the Chrome JSON to -o:
//
//	cilktrace -url http://localhost:8080 -dur 2s -o live.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strings"
	"time"

	"cilkgo"
	"cilkgo/internal/cilkview"
	"cilkgo/internal/sched"
	"cilkgo/internal/trace"
	"cilkgo/internal/vprog"
	"cilkgo/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "fib", "fib | qsort | matmul | nqueens | pfor")
		n        = flag.Int("n", 30, "problem size (fib n, qsort/pfor length, matmul dimension, nqueens board)")
		workers  = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		grain    = flag.Int("grain", 2048, "serial grain size (qsort)")
		seed     = flag.Int64("seed", 1, "workload and steal seed")
		out      = flag.String("o", "trace.json", "Chrome trace-event JSON output path (empty = skip)")
		capacity = flag.Int("capacity", 1<<16, "per-worker trace ring capacity in events")
		buckets  = flag.Int("buckets", 60, "utilization timeline buckets")
		burden   = flag.Int64("burden", 1000, "per-spawn burden for the predicted (Cilkview) profile")
		liveURL  = flag.String("url", "", "capture from a live server's /debug/cilk/trace instead of running a workload (base URL, e.g. http://localhost:8080)")
		liveDur  = flag.Duration("dur", 2*time.Second, "capture window for -url mode")
	)
	flag.Parse()

	if *liveURL != "" {
		if err := captureLive(*liveURL, *liveDur, *out); err != nil {
			fmt.Fprintf(os.Stderr, "cilktrace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	p := *workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}

	run, prog, err := pickWorkload(*workload, *n, *grain, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	rt := cilkgo.New(
		cilkgo.WithWorkers(p),
		cilkgo.WithStealSeed(*seed),
		cilkgo.WithTracing(cilkgo.WithTraceCapacity(*capacity)),
	)
	defer rt.Shutdown()

	tr := rt.Tracer()
	tr.Start()
	tk, runErr := rt.Submit(context.Background(), run, cilkgo.WithStats())
	if runErr == nil {
		runErr = tk.Wait()
	}
	snap := tr.Stop()
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "cilktrace: workload failed: %v\n", runErr)
		os.Exit(1)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := cilkgo.WriteChromeTrace(f, snap); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d events; open in Perfetto or chrome://tracing)\n\n", *out, snap.Events())
	}

	profile := trace.BuildProfile(snap, *buckets)
	fmt.Print(profile.Render())

	stats := tk.Stats()
	fmt.Printf("\nper-run stats: %d spawns, %d tasks, %d steals of this run's tasks, "+
		"max depth %d, live-frame high-water %d\n",
		stats.Spawns, stats.TasksRun, stats.Steals, stats.MaxDepth, stats.MaxLiveFrames)

	// Predicted vs observed: Cilkview's dag-model parallelism against the
	// busy-time parallelism of the schedule that actually ran.
	if prog != nil {
		pv := cilkview.FromProgram(*prog, *burden)
		fmt.Printf("\npredicted vs observed (P = %d workers):\n", p)
		fmt.Printf("  cilkview predicted parallelism          %12.2f\n", pv.Parallelism())
		fmt.Printf("  cilkview burdened parallelism           %12.2f  (burden %d)\n",
			pv.BurdenedParallelism(), *burden)
		fmt.Printf("  observed parallelism (busy time / wall) %12.2f\n", profile.ObservedParallelism())
		fmt.Printf("  speedup upper bound at P (Work/Span laws) %10.2f\n", pv.SpeedupUpper(p))
	} else {
		fmt.Printf("\n(no analytic dag model for %q; predicted-parallelism comparison skipped)\n", *workload)
	}
}

// captureLive asks a live server's /debug/cilk/trace endpoint to record the
// next dur of scheduler activity and writes the returned Chrome trace JSON
// to out. base is the server's base URL; a path already pointing at the
// endpoint is used as-is.
func captureLive(base string, dur time.Duration, out string) error {
	if out == "" {
		return fmt.Errorf("-url mode needs -o (nowhere to save the capture)")
	}
	u, err := url.Parse(base)
	if err != nil {
		return fmt.Errorf("bad -url: %v", err)
	}
	if !strings.HasSuffix(u.Path, "/debug/cilk/trace") {
		u.Path = strings.TrimSuffix(u.Path, "/") + "/debug/cilk/trace"
	}
	q := u.Query()
	q.Set("dur", dur.String())
	u.RawQuery = q.Encode()

	// The server blocks for the whole capture window before it responds;
	// give it the window plus slack.
	client := &http.Client{Timeout: dur + 30*time.Second}
	fmt.Printf("capturing %v from %s ...\n", dur, u)
	resp, err := client.Get(u.String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	n, err := io.Copy(f, resp.Body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes; open in Perfetto or chrome://tracing)\n", out, n)
	return nil
}

// pickWorkload returns the parallel workload body and, when one exists, the
// matching analytic dag program for the predicted-parallelism comparison.
func pickWorkload(name string, n, grain int, seed int64) (func(*sched.Context), *vprog.Program, error) {
	switch name {
	case "fib":
		prog := vprog.Fib(n)
		return func(c *sched.Context) { workloads.Fib(c, n) }, &prog, nil
	case "qsort":
		data := workloads.RandomFloats(n, seed)
		prog := vprog.Qsort(int64(n), uint64(seed), int64(grain))
		return func(c *sched.Context) { workloads.Qsort(c, data, grain) }, &prog, nil
	case "matmul":
		a, b, out := workloads.NewMatrix(n), workloads.NewMatrix(n), workloads.NewMatrix(n)
		for i := range a.Elts {
			a.Elts[i] = float64(i%7) * 0.25
			b.Elts[i] = float64(i%5) * 0.5
		}
		prog := vprog.MatMul(int64(n), 8)
		return func(c *sched.Context) { workloads.MatMul(c, a, b, out) }, &prog, nil
	case "nqueens":
		return func(c *sched.Context) { workloads.NQueens(c, n) }, nil, nil
	case "pfor":
		a := make([]float64, n)
		prog := vprog.PFor(int64(n), 10, int64(grain))
		return func(c *sched.Context) { workloads.FillSin(c, a) }, &prog, nil
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want fib | qsort | matmul | nqueens | pfor)", name)
	}
}
