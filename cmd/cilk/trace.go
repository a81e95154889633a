package main

import (
	"bytes"
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
	"cilkgo/internal/trace"
)

// traceCmd runs a workload on the work-stealing runtime with per-worker
// tracing, writes a Chrome trace-event JSON file (one track per worker;
// open in Perfetto or chrome://tracing), and prints an ASCII report:
// per-worker utilization, steal latencies, live frames, and Cilkview's
// predicted parallelism next to the observed one. With -url it instead
// saves the next -dur of a live server's /debug/cilk/trace (the
// cilkgo.DebugHandler that examples/serve mounts) to -o.
func traceCmd(fs *flag.FlagSet) func(stdout, stderr io.Writer) int {
	var o opts
	o.workloadFlags(fs, "fib", 30, 2048)
	workers := fs.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	out := fs.String("o", "trace.json", "Chrome trace-event JSON output path (empty = skip)")
	capacity := fs.Int("capacity", 1<<16, "per-worker trace ring capacity in events")
	buckets := fs.Int("buckets", 60, "utilization timeline buckets")
	o.burdenFlag(fs)
	liveURL := fs.String("url", "", "capture from a live server's /debug/cilk/trace instead of running a workload (base URL, e.g. http://localhost:8080)")
	liveDur := fs.Duration("dur", 2*time.Second, "capture window for -url mode")
	return func(stdout, stderr io.Writer) int {
		if *liveURL != "" {
			if err := captureLive(stdout, *liveURL, *liveDur, *out); err != nil {
				fmt.Fprintf(stderr, "cilk trace: %v\n", err)
				return 1
			}
			return 0
		}
		w, err := o.lookup()
		if err == nil && w.body == nil {
			err = fmt.Errorf("workload %q has only a dag model, no runtime body", o.workload)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		p := *workers
		if p <= 0 {
			p = runtime.GOMAXPROCS(0)
		}
		rt := cilkgo.New(
			cilkgo.WithWorkers(p),
			cilkgo.WithStealSeed(o.seed),
			cilkgo.WithTracing(cilkgo.WithTraceCapacity(*capacity)),
		)
		defer rt.Shutdown()

		tr := rt.Tracer()
		tr.Start()
		tk, runErr := rt.Submit(context.Background(), w.body(&o))
		if runErr == nil {
			runErr = tk.Wait()
		}
		snap := tr.Stop()
		if runErr != nil {
			fmt.Fprintf(stderr, "cilk trace: workload failed: %v\n", runErr)
			return 1
		}
		if *out != "" {
			var buf bytes.Buffer
			err := cilkgo.WriteChromeTrace(&buf, snap)
			if err == nil {
				err = os.WriteFile(*out, buf.Bytes(), 0o644)
			}
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "wrote %s (%d events; open in Perfetto or chrome://tracing)\n\n", *out, snap.Events())
		}

		profile := trace.BuildProfile(snap, *buckets)
		fmt.Fprint(stdout, profile.Render())

		stats := tk.Stats()
		fmt.Fprintf(stdout, "\nper-run stats: %d spawns, %d tasks, %d steals of this run's tasks, "+
			"max depth %d, live-frame high-water %d\n",
			stats.Spawns, stats.TasksRun, stats.Steals, stats.MaxDepth, stats.MaxLiveFrames)

		// Predicted vs observed: Cilkview's dag-model parallelism against
		// the busy-time parallelism of the schedule that actually ran.
		pv := cilkview.FromProgram(w.model(&o), o.burden)
		fmt.Fprintf(stdout, "\npredicted vs observed (P = %d workers):\n", p)
		fmt.Fprintf(stdout, "  cilkview predicted parallelism          %12.2f\n", pv.Parallelism())
		fmt.Fprintf(stdout, "  cilkview burdened parallelism           %12.2f  (burden %d)\n",
			pv.BurdenedParallelism(), o.burden)
		fmt.Fprintf(stdout, "  observed parallelism (busy time / wall) %12.2f\n", profile.ObservedParallelism())
		fmt.Fprintf(stdout, "  speedup upper bound at P (Work/Span laws) %10.2f\n", pv.SpeedupUpper(p))
		return 0
	}
}

// captureLive asks a live server's /debug/cilk/trace endpoint to record the
// next dur of scheduler activity and writes the returned Chrome trace JSON
// to out. base is the server's base URL; a path already pointing at the
// endpoint is used as-is.
func captureLive(stdout io.Writer, base string, dur time.Duration, out string) error {
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
	fmt.Fprintf(stdout, "capturing %v from %s ...\n", dur, u)
	resp, err := client.Get(u.String())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		err = os.WriteFile(out, body, 0o644)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d bytes; open in Perfetto or chrome://tracing)\n", out, len(body))
	return nil
}
