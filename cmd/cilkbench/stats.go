package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count), or NaN for an empty slice. It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (exclusive), which is what the
// driver applies to the ten per-seed values of a metric. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise measure the bounds are minted from.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailRanks are the percentiles a timing may be reported at, lowest first.
var tailRanks = []float64{75, 90, 95, 99, 99.9}

// tail picks the highest percentile of tailRanks that still has at least
// ten samples beyond it and returns it with its value. ok is false when even
// p75 has fewer than ten samples beyond it (n < 40): such a timing is
// reported by its median alone.
func tail(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	for i := len(tailRanks) - 1; i >= 0; i-- {
		p := tailRanks[i]
		// The epsilon keeps 10000 × 0.1% from falling just short of 10.
		beyond := int(float64(n)*(100-p)/100 + 1e-9)
		if beyond >= 10 {
			return p, sorted(xs)[n-beyond-1], true
		}
	}
	return 0, 0, false
}

// timing is how every measured duration or ratio is reported: the median,
// the highest percentile with at least ten samples beyond it, and the
// sample count.
type timing struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Pct    float64 `json:"pct,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), Median: median(xs)}
	if p, v, ok := tail(xs); ok {
		t.Pct, t.Tail = p, v
	}
	return t
}

func (t timing) String() string {
	if t.Pct == 0 {
		return fmt.Sprintf("%.4g (n=%d)", t.Median, t.N)
	}
	return fmt.Sprintf("%.4g p%g=%.4g (n=%d)", t.Median, t.Pct, t.Tail, t.N)
}
