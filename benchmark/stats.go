package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (the mean of the two middle values
// for an even count), or 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of v, or 0 for an empty sample.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// tailPercentile applies the reporting rule for timings: the highest
// percentile that still has at least ten samples beyond it. With n samples
// that is the (n-10)/n quantile, read at sorted[n-11]. A sample too small
// to support any percentile above the median (n < 20) reports the median
// itself at pct 50, so the column never claims a tail it cannot back.
func tailPercentile(v []float64) (value, pct float64) {
	n := len(v)
	if n < 20 {
		return median(v), 50
	}
	s := sorted(v)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method), so a spread
// computed here matches the one the accepting driver computes. A sample
// of fewer than two values has no spread; all three equal the value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise figure every bound is compared against.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// percentileNearest returns the q-quantile (0..1) of v by nearest rank: the
// smallest sample with at least q of the samples at or below it. Integer
// in, integer out, so simulated times stay exact.
func percentileNearest(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
