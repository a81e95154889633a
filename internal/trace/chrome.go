package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// the JSON consumed by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the trace as Chrome trace-event JSON: one thread track
// per worker carrying nested "task" slices (begin/end pairs mirror the
// worker's runTask nesting), "idle" and "parked" slices, instant events for
// spawns, steal attempts, steals (with the victim id) and inject pickups,
// and a per-worker "live frames" counter track — the Cilkmem-style memory
// series. Open slices at the window edges (a task still running at Stop, or
// whose start was overwritten by ring wraparound) are sanitized so every
// emitted end has a matching begin.
func WriteChrome(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	first := true
	emit := func(e chromeEvent) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	meta := func(name string, tid int, args map[string]any) error {
		b, err := json.Marshal(struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			PID   int            `json:"pid"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		}{name, "M", 1, tid, args})
		if err != nil {
			return err
		}
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		_, err = bw.Write(b)
		return err
	}
	if err := meta("process_name", 0, map[string]any{"name": "cilkgo"}); err != nil {
		return err
	}
	for i := range t.Workers {
		if err := meta("thread_name", i, map[string]any{"name": fmt.Sprintf("worker %d", i)}); err != nil {
			return err
		}
	}

	for wid, events := range t.Workers {
		var taskDepth, idleDepth, parkDepth, live int
		counter := fmt.Sprintf("live frames (w%d)", wid)
		for _, ev := range events {
			us := float64(ev.When) / 1e3
			var err error
			switch ev.Kind {
			case KindTaskStart:
				taskDepth++
				live++
				err = emit(chromeEvent{Name: "task", Phase: "B", TS: us, PID: 1, TID: wid,
					Args: map[string]any{"depth": ev.Arg, "run": ev.Run}})
				if err == nil {
					err = emit(chromeEvent{Name: counter, Phase: "C", TS: us, PID: 1,
						Args: map[string]any{"frames": live}})
				}
			case KindTaskEnd:
				if taskDepth == 0 {
					continue // begin lost to wraparound
				}
				taskDepth--
				live--
				err = emit(chromeEvent{Name: "task", Phase: "E", TS: us, PID: 1, TID: wid})
				if err == nil {
					err = emit(chromeEvent{Name: counter, Phase: "C", TS: us, PID: 1,
						Args: map[string]any{"frames": live}})
				}
			case KindSpawn:
				err = emit(chromeEvent{Name: "spawn", Phase: "i", TS: us, PID: 1, TID: wid, Scope: "t"})
			case KindStealAttempt:
				err = emit(chromeEvent{Name: "steal-attempt", Phase: "i", TS: us, PID: 1, TID: wid,
					Scope: "t", Args: map[string]any{"victim": ev.Arg}})
			case KindStealSuccess:
				err = emit(chromeEvent{Name: "steal", Phase: "i", TS: us, PID: 1, TID: wid,
					Scope: "t", Args: map[string]any{"victim": ev.Arg}})
			case KindHuntYield:
				err = emit(chromeEvent{Name: "hunt-yield", Phase: "i", TS: us, PID: 1, TID: wid, Scope: "t"})
			case KindLoopSplit:
				err = emit(chromeEvent{Name: "loop-split", Phase: "i", TS: us, PID: 1, TID: wid,
					Scope: "t", Args: map[string]any{"iterations": ev.Arg, "run": ev.Run}})
			case KindChunkRun:
				err = emit(chromeEvent{Name: "chunk", Phase: "i", TS: us, PID: 1, TID: wid,
					Scope: "t", Args: map[string]any{"iterations": ev.Arg, "run": ev.Run}})
			case KindInjectPickup:
				err = emit(chromeEvent{Name: "inject-pickup", Phase: "i", TS: us, PID: 1, TID: wid, Scope: "t"})
			case KindTaskSkip:
				err = emit(chromeEvent{Name: "task-skip", Phase: "i", TS: us, PID: 1, TID: wid,
					Scope: "t", Args: map[string]any{"depth": ev.Arg, "run": ev.Run}})
			case KindPanic:
				// Process-scoped so the quarantine is visible at a glance
				// across every track.
				err = emit(chromeEvent{Name: "panic", Phase: "i", TS: us, PID: 1, TID: wid,
					Scope: "p", Args: map[string]any{"depth": ev.Arg, "run": ev.Run}})
			case KindIdleEnter:
				idleDepth++
				err = emit(chromeEvent{Name: "idle", Phase: "B", TS: us, PID: 1, TID: wid})
			case KindIdleExit:
				if idleDepth == 0 {
					continue
				}
				idleDepth--
				err = emit(chromeEvent{Name: "idle", Phase: "E", TS: us, PID: 1, TID: wid})
			case KindPark:
				parkDepth++
				err = emit(chromeEvent{Name: "parked", Phase: "B", TS: us, PID: 1, TID: wid})
			case KindUnpark:
				if parkDepth == 0 {
					continue
				}
				parkDepth--
				err = emit(chromeEvent{Name: "parked", Phase: "E", TS: us, PID: 1, TID: wid})
			}
			if err != nil {
				return err
			}
		}
		// Close slices still open at the end of the window so viewers don't
		// extend them arbitrarily. Innermost first: park nests inside idle,
		// and tasks never overlap either.
		end := float64(t.Duration.Nanoseconds()) / 1e3
		for _, open := range []struct {
			name  string
			depth int
		}{{"parked", parkDepth}, {"idle", idleDepth}, {"task", taskDepth}} {
			for j := 0; j < open.depth; j++ {
				if err := emit(chromeEvent{Name: open.name, Phase: "E", TS: end, PID: 1, TID: wid}); err != nil {
					return err
				}
			}
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}
