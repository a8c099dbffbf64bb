package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder lists the percentiles a tail may be reported at, highest
// last.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9}

// tailSamplesBeyond is how many samples must lie beyond a reported tail
// percentile: with fewer, the percentile is set by a handful of samples
// and does not repeat from run to run.
const tailSamplesBeyond = 10

// tail is a tail percentile together with the evidence behind it.
type tail struct {
	Pct    float64 // percentile reported (from tailLadder)
	Value  float64 // the nearest-rank sample at that percentile
	N      int     // sample count
	Beyond int     // samples strictly after the percentile's rank
}

func (t tail) String() string {
	return fmt.Sprintf("p%g=%.4g (n=%d, %d beyond)", t.Pct, t.Value, t.N, t.Beyond)
}

// tailOf applies the tail rule: report the highest percentile of
// tailLadder whose nearest-rank position leaves at least tailSamplesBeyond
// samples after it. When even the median leaves fewer (n < 20), the median
// is reported and Beyond records the shortfall.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sorted(xs)
	best := tail{Pct: 50, N: n}
	best.Beyond = n - nearestRank(50, n)
	best.Value = s[nearestRank(50, n)-1]
	for _, p := range tailLadder {
		k := nearestRank(p, n)
		if n-k >= tailSamplesBeyond {
			best = tail{Pct: p, Value: s[k-1], N: n, Beyond: n - k}
		}
	}
	return best
}

// nearestRank is the 1-based nearest-rank position of percentile p among
// n sorted samples: ceil(p/100 * n), at least 1.
func nearestRank(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// residue is the share of a measured total that its named parts leave
// unexplained: (total - sum(parts)) / total. It is negative when the parts
// overlap or overshoot.
func residue(total float64, parts ...float64) float64 {
	if total == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	return (total - sum) / total
}

// withinTol reports whether a residue is inside the stated tolerance.
func withinTol(res, tol float64) bool { return math.Abs(res) <= tol }
