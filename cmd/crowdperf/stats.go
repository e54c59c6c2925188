package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile before it
// is reported: with fewer, the "p99" of a run is just its largest few
// samples and says nothing repeatable.
const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the q-quantile of ascending samples by the
// nearest-rank method: the smallest sample with at least q·n samples at or
// below it. Every value it returns is a measured sample, never a bucket
// bound or an interpolation between two samples.
func nearestRank(asc []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// tailReportable reports whether the q-quantile of n samples has at least
// minBeyond samples above it.
func tailReportable(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// median is the nearest-rank median; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return nearestRank(sorted(xs), 0.5)
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so the spreads -compare prints are the
// spreads an external check computes from the same runs. A single value
// is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	ld := len(d)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}
