package main

import (
	"fmt"
	"math"
	"sort"
)

// timing summarises one set of timing samples the way every timing in the
// benchmark is reported: the median, the highest percentile of the ladder
// below that still has at least ten samples beyond it, and the sample
// count. With fewer than twenty samples no percentile qualifies and the
// tail is the maximum, labelled "max".
type timing struct {
	N      int
	Median float64
	TailQ  float64 // 0.999, 0.99, 0.9 or 0.5; 1 means the maximum
	Tail   float64
}

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// summarize computes the timing summary of xs. It does not modify xs.
func summarize(xs []float64) timing {
	if len(xs) == 0 {
		return timing{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	t := timing{N: len(s), Median: s[mid], TailQ: 1, Tail: s[len(s)-1]}
	if len(s)%2 == 0 {
		t.Median = (s[mid-1] + s[mid]) / 2
	}
	for _, q := range tailLadder {
		if len(s)-rank(q, len(s)) >= minBeyond {
			t.TailQ, t.Tail = q, quantile(s, q)
			break
		}
	}
	return t
}

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest value with at least a q share of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// small slack keeps q*n that is whole in exact arithmetic (0.9*100) from
// rounding up past it.
func rank(q float64, n int) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// median returns the median of xs (the mean of the two middle values for
// an even count), or 0 when empty.
func median(xs []float64) float64 { return summarize(xs).Median }

// tailAt returns the q-quantile of xs when at least ten samples lie beyond
// it, and otherwise the summary's own tail.
func tailAt(xs []float64, q float64) float64 {
	t := summarize(xs)
	if t.N-rank(q, t.N) >= minBeyond {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return quantile(s, q)
	}
	return t.Tail
}

// String renders the summary for the human-readable table.
func (t timing) String() string {
	label := "max"
	if t.TailQ < 1 {
		label = fmt.Sprintf("p%g", t.TailQ*100)
	}
	return fmt.Sprintf("median %.4g  %s %.4g  n=%d", t.Median, label, t.Tail, t.N)
}
