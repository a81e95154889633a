package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cilkgo"
	"cilkgo/internal/race"
)

// goldens pins the deterministic commands' output byte for byte. The files
// in testdata are the output of the four per-tool binaries this command
// replaced (cilkview, cilksim, cilkscreen) for the same arguments, except
// view_treewalk (treewalk now models a 900‰ hit rate, as sim always did),
// screen_treewalk-reducer (the reducer walk no longer reports false races),
// and sim_treewalk_mutex and view_treewalk_mutex (the parallelism and the
// span-law ceiling count the locked work, which runs one segment at a
// time). Regenerate one with `go run ./cmd/cilk <args> > testdata/<name>.golden`.
var goldens = []struct {
	name, args string
	exit       int
}{
	{"view_qsort", "view -workload qsort -n 20000 -grain 256 -procs 1,2,4,8 -simulate -mem -plot", 0},
	{"view_fib_csv", "view -workload fib -n 15 -procs 1,2,4 -simulate -csv", 0},
	{"view_nqueens_mem", "view -workload nqueens -n 6 -mem -procs 1,2,4", 0},
	{"view_treewalk", "view -workload treewalk -n 3000 -procs 1,2,4", 0},
	{"view_treewalk_mutex", "view -workload treewalk-mutex -n 3000 -procs 1,2,4 -simulate", 0},
	{"sim_fib", "sim -workload fib -n 15 -procs 1,2,4,8", 0},
	{"sim_qsort", "sim -workload qsort -n 20000 -grain 256 -procs 1,2,4", 0},
	{"sim_treewalk", "sim -workload treewalk -n 3000 -procs 1,2,4", 0},
	{"sim_treewalk_mutex", "sim -workload treewalk-mutex -n 3000 -handoff 300 -procs 1,2,4,8", 0},
	{"screen_qsort-buggy", "screen -program qsort-buggy -n 64", 1},
	{"screen_qsort-ok", "screen -program qsort-ok -n 64", 0},
	{"screen_treewalk-racy", "screen -program treewalk-racy -n 64", 1},
	{"screen_treewalk-mutex", "screen -program treewalk-mutex -n 64", 0},
	{"screen_treewalk-reducer", "screen -program treewalk-reducer -n 64", 0},
}

func TestGolden(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(g.args), &stdout, &stderr); code != g.exit {
				t.Fatalf("cilk %s: exit %d, want %d; stderr:\n%s", g.args, code, g.exit, &stderr)
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("cilk %s: output differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", g.args, g.name, got, want)
			}
		})
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range []string{
		"", "nope", "view -workload nope", "sim -procs 2,0", "view -bogus",
		"trace -workload bfs", "screen", "screen -program nope",
	} {
		if code := run(strings.Fields(args), io.Discard, io.Discard); code != 2 {
			t.Errorf("cilk %s: exit %d, want 2", args, code)
		}
	}
}

// checkChrome parses a Chrome trace-event file and checks it names one
// row per worker.
func checkChrome(t *testing.T, path string, workers int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Events []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("%s is not valid trace JSON: %v", path, err)
	}
	rows := map[int]bool{}
	for _, ev := range doc.Events {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			rows[ev.Tid] = true
		}
	}
	for w := 0; w < workers; w++ {
		if !rows[w] {
			t.Errorf("%s: no row for worker %d (rows %v)", path, w, rows)
		}
	}
}

func TestTraceStructure(t *testing.T) {
	for _, workload := range []string{"fib", "nqueens", "qsort"} {
		path := filepath.Join(t.TempDir(), "trace.json")
		var stdout, stderr bytes.Buffer
		args := []string{"trace", "-workload", workload, "-n", smallN(workload), "-workers", "2", "-o", path}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("cilk %v: exit %d; stderr:\n%s", args, code, &stderr)
		}
		checkChrome(t, path, 2)
		for _, want := range []string{"per-run stats: ", "predicted vs observed (P = 2 workers)", "cilkview predicted parallelism"} {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("cilk %v: output lacks %q:\n%s", args, want, &stdout)
			}
		}
	}
}

// liveServer serves cilkgo.DebugHandler for a traced two-worker runtime,
// as examples/serve mounts it.
func liveServer(t *testing.T) string {
	rt := cilkgo.New(cilkgo.WithWorkers(2), cilkgo.WithTracing())
	srv := httptest.NewServer(cilkgo.DebugHandler(rt))
	t.Cleanup(func() { srv.Close(); rt.Shutdown() })
	return srv.URL
}

func TestTraceLiveCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.json")
	var stdout, stderr bytes.Buffer
	args := []string{"trace", "-url", liveServer(t), "-dur", "50ms", "-o", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("cilk %v: exit %d; stderr:\n%s", args, code, &stderr)
	}
	checkChrome(t, path, 2)
	if !strings.Contains(stdout.String(), "wrote "+path) {
		t.Errorf("output lacks the wrote line:\n%s", &stdout)
	}
}

// readmeCommands returns the arguments of every `go run ./cmd/cilk …`
// command in README.md, in a code block or inline, with backslash
// continuations joined and trailing comments dropped.
func readmeCommands(t *testing.T) [][]string {
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const prefix = "go run ./cmd/cilk "
	var cmds [][]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		_, line, ok := strings.Cut(sc.Text(), prefix)
		if !ok {
			continue
		}
		for strings.HasSuffix(line, `\`) && sc.Scan() {
			line = strings.TrimSuffix(line, `\`) + sc.Text()
		}
		line, _, _ = strings.Cut(line, "`")
		line, _, _ = strings.Cut(line, "#")
		cmds = append(cmds, strings.Fields(line))
	}
	return cmds
}

// smallN is the -n a test runs a workload or screen program at.
func smallN(name string) string {
	if n, ok := map[string]string{"fib": "12", "nqueens": "6", "matmul": "16"}[name]; ok {
		return n
	}
	return "256"
}

// TestReadmeCommands parses every README command against its command's
// flags as written, then runs it at a scaled-down -n (a live -url capture
// against a test server, a trace's -o in a temporary directory) and checks
// the exit status: screen exits 1 for the racy programs, everything else 0.
func TestReadmeCommands(t *testing.T) {
	cmds := readmeCommands(t)
	if len(cmds) < 8 {
		t.Fatalf("found %d `go run ./cmd/cilk` commands in README.md, want at least 8", len(cmds))
	}
	url := liveServer(t)
	for _, args := range cmds {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var setup func(*flag.FlagSet) func(io.Writer, io.Writer) int
			for _, c := range commands {
				if c.name == args[0] {
					setup = c.setup
				}
			}
			if setup == nil {
				t.Fatalf("unknown command %q", args[0])
			}
			fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			setup(fs)
			if err := fs.Parse(args[1:]); err != nil || fs.NArg() > 0 {
				t.Fatalf("README arguments do not parse: %v (left over %q)", err, fs.Args())
			}
			want, name := 0, ""
			if f := fs.Lookup("workload"); f != nil {
				name = f.Value.String()
			}
			if args[0] == "screen" {
				name = fs.Lookup("program").Value.String()
				for _, p := range race.Programs {
					if p.Name == name && p.Racy {
						want = 1
					}
				}
			}
			scaled := append([]string(nil), args...)
			for i := 1; i+1 < len(scaled); i++ {
				switch scaled[i] {
				case "-url":
					scaled[i+1] = url
				case "-dur":
					scaled[i+1] = "50ms"
				}
			}
			scaled = append(scaled, "-n", smallN(name))
			if args[0] == "trace" {
				scaled = append(scaled, "-o", filepath.Join(t.TempDir(), "out.json"))
			}
			var stderr bytes.Buffer
			if code := run(scaled, io.Discard, &stderr); code != want {
				t.Errorf("cilk %v: exit %d, want %d; stderr:\n%s", scaled, code, want, &stderr)
			}
		})
	}
}
