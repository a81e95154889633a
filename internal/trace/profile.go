package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// WorkerProfile summarizes one worker's timeline.
type WorkerProfile struct {
	// Event counts.
	Tasks         int64 // tasks executed (task-start events)
	Spawns        int64
	Steals        int64 // successful steals by this worker
	StealAttempts int64
	StealBatches  int64 // steals that moved extra tasks beyond the one kept
	TasksBatched  int64 // extra tasks those batches moved
	HuntYields    int64 // hunts that escalated from spinning to yielding
	InjectPickups int64
	TaskSkips     int64 // tasks abandoned because their run was cancelled
	Panics        int64 // panics quarantined inside this worker's tasks
	LoopSplits    int64 // stolen lazy-loop ranges halved on this worker
	LoopChunks    int64 // grain-sized lazy-loop chunks executed
	// Time split. Busy is time with at least one task open; Hunt is time
	// inside idle slices but not parked (actively probing victims); Parked
	// is time blocked on the runtime condition variable. The remainder of
	// the wall clock is scheduler overhead between slices.
	Busy   time.Duration
	Hunt   time.Duration
	Parked time.Duration
	// MaxLiveFrames is the worker's deepest runTask nesting — its peak
	// count of simultaneously live frames.
	MaxLiveFrames int64
}

// Profile is the derived view of a Trace: where each worker's time went,
// aggregate utilization over time, steal latencies, and the live-frames
// high-water series.
type Profile struct {
	// Wall is the length of the profiled window. When ring buffers wrapped,
	// the window is clipped to the retained events: it starts WindowStart
	// after the trace epoch instead of at zero, so time splits are computed
	// over the region the events actually cover.
	Wall        time.Duration
	WindowStart time.Duration
	Workers     []WorkerProfile

	// Utilization[b] is the fraction of bucket b's worker-time spent
	// running tasks, aggregated over all workers; BucketDur is the bucket
	// width (Wall / len(Utilization)).
	Utilization []float64
	BucketDur   time.Duration

	// StealLatency is the distribution of hunt time preceding each
	// successful steal: from the first probe after running out of work to
	// the probe that succeeded.
	StealLatency Histogram

	// LiveFrames[b] is the high-water mark, within bucket b, of the global
	// count of simultaneously live frames (summed over workers);
	// MaxLiveFrames is the overall high-water mark — the Cilkmem-style
	// memory profile of the actual schedule.
	LiveFrames    []int64
	MaxLiveFrames int64

	// Events is the number of events profiled; Dropped counts ring-buffer
	// overwrites (the profile covers only retained events).
	Events  int
	Dropped int64
}

// ObservedParallelism is total busy time divided by wall time — the
// empirical counterpart of Cilkview's predicted parallelism, bounded above
// by the worker count.
func (p *Profile) ObservedParallelism() float64 {
	if p.Wall <= 0 {
		return 0
	}
	var busy time.Duration
	for _, w := range p.Workers {
		busy += w.Busy
	}
	return float64(busy) / float64(p.Wall)
}

// frameDelta is a ±1 change of the global live-frame count, for the merged
// sweep across workers.
type frameDelta struct {
	when  int64
	delta int
}

// BuildProfile derives a Profile from a trace, dividing the window into the
// given number of utilization buckets (≤ 0 means 60).
func BuildProfile(t *Trace, buckets int) *Profile {
	if buckets <= 0 {
		buckets = 60
	}
	end := t.Duration
	var start time.Duration
	for _, events := range t.Workers {
		if n := len(events); n > 0 && time.Duration(events[n-1].When) > end {
			end = time.Duration(events[n-1].When)
		}
	}
	// When rings wrapped, earlier events are gone — and each worker's ring
	// wraps at its own pace. Clip the window to where every worker still
	// has coverage (the latest first-retained event), so no worker shows
	// fake idle time for a region its ring overwrote.
	if t.TotalDropped() > 0 {
		for _, events := range t.Workers {
			if len(events) > 0 && time.Duration(events[0].When) > start {
				start = time.Duration(events[0].When)
			}
		}
	}
	wall := end - start
	if wall <= 0 {
		wall = time.Nanosecond
	}
	p := &Profile{
		Wall:         wall,
		WindowStart:  start,
		Workers:      make([]WorkerProfile, len(t.Workers)),
		Utilization:  make([]float64, buckets),
		BucketDur:    wall / time.Duration(buckets),
		StealLatency: newLatencyHist(),
		LiveFrames:   make([]int64, buckets),
		Events:       t.Events(),
		Dropped:      t.TotalDropped(),
	}
	busyNs := make([]float64, buckets)
	var deltas []frameDelta

	startNs := int64(start)
	wallNs := int64(wall)
	bucketOf := func(ns int64) int {
		b := int(ns * int64(buckets) / wallNs)
		if b >= buckets {
			b = buckets - 1
		}
		if b < 0 {
			b = 0
		}
		return b
	}
	// addBusy distributes [from, to) nanoseconds over the busy buckets.
	addBusy := func(from, to int64) {
		if to <= from {
			return
		}
		lo, hi := bucketOf(from), bucketOf(to-1)
		for b := lo; b <= hi; b++ {
			bStart := wallNs * int64(b) / int64(buckets)
			bEnd := wallNs * int64(b+1) / int64(buckets)
			s, e := max64(from, bStart), min64(to, bEnd)
			if e > s {
				busyNs[b] += float64(e - s)
			}
		}
	}

	for wid, events := range t.Workers {
		wp := &p.Workers[wid]
		var taskDepth int64
		var busyStart, idleStart, parkStart, huntStart int64 = -1, -1, -1, -1
		// Pre-scan for intervals that began before the window: tracing can
		// start (or a ring can wrap) while a worker is mid-task, idle, or
		// parked, leaving end events with no start. An unmatched end means
		// the worker has been in that state since the window opened, so open
		// the interval at the window start instead of dropping it — a worker
		// parked since before Start would otherwise show unaccounted time.
		{
			depth := 0
			seenIdle, seenPark := false, false
			for _, ev := range events {
				switch ev.Kind {
				case KindTaskStart:
					depth++
				case KindTaskEnd:
					if depth > 0 {
						depth--
					} else {
						taskDepth++
					}
				case KindIdleEnter:
					seenIdle = true
				case KindIdleExit:
					if !seenIdle {
						idleStart = 0
						seenIdle = true
					}
				case KindPark:
					seenPark = true
				case KindUnpark:
					if !seenPark {
						parkStart = 0
						seenPark = true
					}
				}
			}
			if taskDepth > 0 {
				busyStart = 0
				wp.MaxLiveFrames = taskDepth
				for j := int64(0); j < taskDepth; j++ {
					// when −1 sorts these opens ahead of any end clipped to 0.
					deltas = append(deltas, frameDelta{-1, +1})
				}
			}
		}
		for _, ev := range events {
			// Events before the clipped window (from workers whose rings
			// kept more history) clamp to its start so open intervals
			// carry in correctly.
			when := ev.When - startNs
			if when < 0 {
				when = 0
			}
			switch ev.Kind {
			case KindTaskStart:
				wp.Tasks++
				taskDepth++
				if taskDepth > wp.MaxLiveFrames {
					wp.MaxLiveFrames = taskDepth
				}
				if taskDepth == 1 {
					busyStart = when
				}
				deltas = append(deltas, frameDelta{when, +1})
				huntStart = -1
			case KindTaskEnd:
				if taskDepth == 0 {
					continue // start lost to wraparound
				}
				taskDepth--
				if taskDepth == 0 {
					wp.Busy += time.Duration(when - busyStart)
					addBusy(busyStart, when)
					busyStart = -1
				}
				deltas = append(deltas, frameDelta{when, -1})
			case KindSpawn:
				wp.Spawns++
			case KindStealAttempt:
				wp.StealAttempts++
				if huntStart < 0 {
					huntStart = when
				}
			case KindStealSuccess:
				wp.Steals++
				if huntStart >= 0 {
					p.StealLatency.add(time.Duration(when - huntStart))
					huntStart = -1
				}
			case KindStealBatch:
				// Follows its KindStealSuccess event, which already closed the
				// hunt; only the counters need updating.
				wp.StealBatches++
				wp.TasksBatched += int64(ev.Arg)
			case KindHuntYield:
				wp.HuntYields++
			case KindLoopSplit:
				wp.LoopSplits++
			case KindChunkRun:
				wp.LoopChunks++
			case KindInjectPickup:
				wp.InjectPickups++
				huntStart = -1
			case KindTaskSkip:
				wp.TaskSkips++
				huntStart = -1
			case KindPanic:
				wp.Panics++
			case KindIdleEnter:
				idleStart = when
			case KindIdleExit:
				if idleStart >= 0 {
					wp.Hunt += time.Duration(when - idleStart)
					idleStart = -1
				}
			case KindPark:
				parkStart = when
			case KindUnpark:
				if parkStart >= 0 {
					wp.Parked += time.Duration(when - parkStart)
					parkStart = -1
				}
			}
		}
		// Close intervals still open at the end of the window.
		if busyStart >= 0 {
			wp.Busy += time.Duration(wallNs - busyStart)
			addBusy(busyStart, wallNs)
		}
		if idleStart >= 0 {
			wp.Hunt += time.Duration(wallNs - idleStart)
		}
		if parkStart >= 0 {
			wp.Parked += time.Duration(wallNs - parkStart)
		}
		// Park slices nest inside idle slices; report hunting exclusive of
		// parked time.
		wp.Hunt -= wp.Parked
		if wp.Hunt < 0 {
			wp.Hunt = 0
		}
	}

	// Global live-frames sweep: merge the per-worker ±1 deltas by time and
	// track the running sum's high-water mark per bucket and overall.
	sortDeltas(deltas)
	var live int64
	for _, d := range deltas {
		live += int64(d.delta)
		if live > p.MaxLiveFrames {
			p.MaxLiveFrames = live
		}
		b := bucketOf(d.when)
		if live > p.LiveFrames[b] {
			p.LiveFrames[b] = live
		}
	}
	// Carry the running level into buckets without events of their own.
	var level int64
	i := 0
	for b := 0; b < buckets; b++ {
		bEnd := wallNs * int64(b+1) / int64(buckets)
		if level > p.LiveFrames[b] {
			p.LiveFrames[b] = level
		}
		for i < len(deltas) && deltas[i].when < bEnd {
			level += int64(deltas[i].delta)
			i++
		}
	}

	if nw := len(t.Workers); nw > 0 {
		denom := float64(p.BucketDur) * float64(nw)
		for b := range p.Utilization {
			if denom > 0 {
				u := busyNs[b] / denom
				if u > 1 {
					u = 1
				}
				p.Utilization[b] = u
			}
		}
	}
	return p
}

func sortDeltas(d []frameDelta) {
	sort.Slice(d, func(i, j int) bool {
		if d[i].when != d[j].when {
			return d[i].when < d[j].when
		}
		// Ends before starts at equal timestamps, so the high-water mark
		// is not inflated by adjacent slices.
		return d[i].delta < d[j].delta
	})
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders values scaled to [0, hi] as unicode block characters.
func sparkline(values []float64, hi float64) string {
	var sb strings.Builder
	for _, v := range values {
		idx := 0
		if hi > 0 {
			idx = int(v / hi * float64(len(sparkRunes)))
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
			if idx < 0 {
				idx = 0
			}
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// Render formats the profile as an ASCII report: per-worker time split and
// counts, the utilization timeline, the live-frames high-water series, and
// the steal-latency histogram.
func (p *Profile) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d workers, wall %v, %d events (%d dropped)\n",
		len(p.Workers), p.Wall.Round(time.Microsecond), p.Events, p.Dropped)
	if p.WindowStart > 0 {
		fmt.Fprintf(&sb, "(rings wrapped: profile covers the final %v, from %v after start)\n",
			p.Wall.Round(time.Microsecond), p.WindowStart.Round(time.Microsecond))
	}
	sb.WriteString("\n")

	fmt.Fprintf(&sb, "%6s  %6s %6s %6s  %9s %9s %8s %9s %7s %6s\n",
		"worker", "busy%", "hunt%", "park%", "tasks", "spawns", "steals", "attempts", "inject", "maxlf")
	var tot WorkerProfile
	pct := func(d time.Duration) float64 { return 100 * float64(d) / float64(p.Wall) }
	for i, w := range p.Workers {
		fmt.Fprintf(&sb, "%6d  %6.1f %6.1f %6.1f  %9d %9d %8d %9d %7d %6d\n",
			i, pct(w.Busy), pct(w.Hunt), pct(w.Parked),
			w.Tasks, w.Spawns, w.Steals, w.StealAttempts, w.InjectPickups, w.MaxLiveFrames)
		tot.Busy += w.Busy
		tot.Hunt += w.Hunt
		tot.Parked += w.Parked
		tot.Tasks += w.Tasks
		tot.Spawns += w.Spawns
		tot.Steals += w.Steals
		tot.StealAttempts += w.StealAttempts
		tot.StealBatches += w.StealBatches
		tot.TasksBatched += w.TasksBatched
		tot.InjectPickups += w.InjectPickups
		tot.TaskSkips += w.TaskSkips
		tot.Panics += w.Panics
		tot.LoopSplits += w.LoopSplits
		tot.LoopChunks += w.LoopChunks
	}
	n := len(p.Workers)
	if n > 0 {
		fmt.Fprintf(&sb, "%6s  %6.1f %6.1f %6.1f  %9d %9d %8d %9d %7d\n",
			"all", pct(tot.Busy)/float64(n), pct(tot.Hunt)/float64(n), pct(tot.Parked)/float64(n),
			tot.Tasks, tot.Spawns, tot.Steals, tot.StealAttempts, tot.InjectPickups)
	}
	if tot.StealBatches > 0 {
		fmt.Fprintf(&sb, "\nbatched steals: %d batches moved %d extra tasks (%.1f per batch)\n",
			tot.StealBatches, tot.TasksBatched, float64(tot.TasksBatched)/float64(tot.StealBatches))
	}
	if tot.LoopChunks > 0 {
		fmt.Fprintf(&sb, "\nlazy loops: %d chunks run, %d steal-driven splits\n",
			tot.LoopChunks, tot.LoopSplits)
	}
	if tot.TaskSkips > 0 || tot.Panics > 0 {
		fmt.Fprintf(&sb, "\nabandoned work: %d tasks skipped after cancellation, %d panics quarantined\n",
			tot.TaskSkips, tot.Panics)
	}

	fmt.Fprintf(&sb, "\nutilization over time (%d buckets of %v, mean %.1f%%, observed parallelism %.2f):\n",
		len(p.Utilization), p.BucketDur.Round(time.Microsecond),
		100*mean(p.Utilization), p.ObservedParallelism())
	fmt.Fprintf(&sb, "  |%s|\n", sparkline(p.Utilization, 1))

	lf := make([]float64, len(p.LiveFrames))
	for i, v := range p.LiveFrames {
		lf[i] = float64(v)
	}
	fmt.Fprintf(&sb, "\nlive frames over time (high-water %d):\n", p.MaxLiveFrames)
	fmt.Fprintf(&sb, "  |%s|\n", sparkline(lf, float64(p.MaxLiveFrames)))

	h := &p.StealLatency
	fmt.Fprintf(&sb, "\nsteal latency (first probe → successful steal): %d steals", h.N)
	if h.N > 0 {
		fmt.Fprintf(&sb, ", mean %v, p50 %v, p95 %v, p99 %v, max %v\n",
			h.Mean().Round(time.Nanosecond*10),
			h.Quantile(0.50).Round(time.Nanosecond*10),
			h.Quantile(0.95).Round(time.Nanosecond*10),
			h.Quantile(0.99).Round(time.Nanosecond*10),
			h.Max.Round(time.Nanosecond*10))
		maxCount := int64(0)
		for _, c := range h.Counts {
			if c > maxCount {
				maxCount = c
			}
		}
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			var label string
			if i < len(h.Bounds) {
				label = "<" + h.Bounds[i].String()
			} else {
				label = ">=" + h.Bounds[len(h.Bounds)-1].String()
			}
			bar := strings.Repeat("█", int(40*c/maxCount))
			if bar == "" {
				bar = "▏"
			}
			fmt.Fprintf(&sb, "  %9s  %-40s %d\n", label, bar, c)
		}
	} else {
		sb.WriteString("\n")
	}
	return sb.String()
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
