package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTrace builds a synthetic two-worker trace exercising every event
// kind plus the writer's sanitizing rules: an end without a begin (lost to
// ring wraparound, must be dropped) and slices still open at the window's
// edge (must be closed at Duration). Timestamps are fixed, so the Chrome
// JSON is byte-for-byte deterministic.
func goldenTrace() *Trace {
	us := func(n int64) int64 { return n * 1000 } // event times in µs → ns
	w0 := []Event{
		{When: us(0), Kind: KindTaskEnd}, // begin lost to wraparound: dropped
		{When: us(5), Kind: KindInjectPickup},
		{When: us(10), Kind: KindTaskStart, Arg: 0, Run: 1},
		{When: us(20), Kind: KindSpawn},
		{When: us(25), Kind: KindSpawn},
		{When: us(40), Kind: KindTaskStart, Arg: 1, Run: 1}, // nested: steal-free pop at sync
		{When: us(60), Kind: KindTaskEnd},
		{When: us(70), Kind: KindChunkRun, Arg: 32, Run: 1},
		{When: us(80), Kind: KindTaskSkip, Arg: 2, Run: 2},
		{When: us(90), Kind: KindPanic, Arg: 1, Run: 3},
		{When: us(100), Kind: KindTaskEnd},
		{When: us(110), Kind: KindIdleEnter},
		{When: us(115), Kind: KindHuntYield},
		{When: us(120), Kind: KindPark}, // still parked at window end: closed at Duration
	}
	w1 := []Event{
		{When: us(15), Kind: KindIdleEnter},
		{When: us(18), Kind: KindStealAttempt, Arg: 0},
		{When: us(30), Kind: KindStealSuccess, Arg: 0},
		{When: us(32), Kind: KindLoopSplit, Arg: 64, Run: 1},
		{When: us(35), Kind: KindIdleExit},
		{When: us(36), Kind: KindTaskStart, Arg: 1, Run: 1}, // still running at window end
	}
	return &Trace{
		Epoch:    time.Unix(0, 0),
		Duration: 200 * time.Microsecond,
		Workers:  [][]Event{w0, w1},
		Dropped:  []int64{1, 0},
	}
}

// TestChromeGolden pins the Chrome trace-event encoding: any change to the
// emitted JSON (event names, phases, args, sanitizing) shows up as a golden
// diff. Regenerate deliberately with `go test ./internal/trace -run
// TestChromeGolden -update`.
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	// Whatever the golden comparison says, the output must be valid JSON
	// with the envelope Perfetto expects.
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(got, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("unexpected envelope: unit %q, %d events", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}

	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("Chrome JSON drifted from golden file %s.\nIf the change is deliberate, regenerate with -update.\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}
