package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// clockTicksPerSecond is USER_HZ, the unit of /proc/stat; it is 100 on
// every Linux configuration Go supports.
const clockTicksPerSecond = 100

// stealMeter reports the share of this host's CPU time the hypervisor gave
// to other guests while a workload ran, so a bad run is explainable.
type stealMeter struct {
	ticks int64
	at    time.Time
}

// stealTicks reads the steal column of the aggregate cpu line of
// /proc/stat; ok is false where the file or the column is missing.
func stealTicks() (ticks int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	return v, err == nil
}

func startStealMeter() stealMeter {
	t, _ := stealTicks()
	return stealMeter{ticks: t, at: time.Now()}
}

// share is Δ steal ticks ÷ (wall × cpus); 0 where /proc/stat is unreadable.
func (m stealMeter) share() float64 {
	t, ok := stealTicks()
	wall := time.Since(m.at).Seconds()
	if !ok || wall <= 0 {
		return 0
	}
	return float64(t-m.ticks) / clockTicksPerSecond / (wall * float64(runtime.NumCPU()))
}
