package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between order statistics, the same rule as Python's
// statistics.quantiles(method="inclusive"). xs need not be sorted; an
// empty sample reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// samplesBeyond is how many samples of an n-sample lie strictly above its
// q-quantile position.
func samplesBeyond(n int, q float64) int {
	return n - 1 - int(math.Ceil(q*float64(n-1)))
}

// highestPercentile picks, from the candidates, the highest percentile
// that still has at least ten samples beyond it in a sample of n — the
// choosing-metrics rule for reporting a tail. It returns 0 when even the
// lowest candidate has fewer than ten.
func highestPercentile(n int, candidates ...float64) float64 {
	best := 0.0
	for _, q := range candidates {
		if samplesBeyond(n, q) >= 10 && q > best {
			best = q
		}
	}
	return best
}

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the default "exclusive"
// method), which is how the driver measures run-to-run spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quantile i of 4, exclusive method
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadShare is the interquartile distance of xs as a share of their
// median: the run-to-run spread the driver compares to a metric's bound.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// interval is a half-open time span [Start, End) in nanoseconds on the
// span recorder's clock.
type interval struct{ Start, End int64 }

// unionIntervals merges overlapping intervals, clipped to clip, and
// returns them sorted and disjoint.
func unionIntervals(in []interval, clip interval) []interval {
	var c []interval
	for _, iv := range in {
		if iv.Start < clip.Start {
			iv.Start = clip.Start
		}
		if iv.End > clip.End {
			iv.End = clip.End
		}
		if iv.End > iv.Start {
			c = append(c, iv)
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i].Start < c[j].Start })
	var out []interval
	for _, iv := range c {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// totalLen sums the lengths of disjoint intervals.
func totalLen(ivs []interval) int64 {
	var n int64
	for _, iv := range ivs {
		n += iv.End - iv.Start
	}
	return n
}

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent (a daemon handler can outlive the
// client call that caused it) and overlapping children count once.
func selfTime(parent interval, children []interval) int64 {
	return parent.End - parent.Start - totalLen(unionIntervals(children, parent))
}
