package main

import "sort"

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// A run's rate is a rank among its hundred 100 ms windows, not their mean.
// The box is a shared VM whose speed moves in phases of seconds — neighbours
// evict the tables from the shared last-level cache and slow a memory-bound
// window by up to a third — so the mean follows the neighbours. The
// slow-downs are one-sided for the readers, so their rate is read near the
// top, short of the few lucky windows the socket workloads have. A writer
// shares its cores with a reader and speeds up whenever the reader is held
// back, so its noise has two sides and its rate is the median window. Over
// ten runs per workload these ranks repeated best.
const (
	readRank  = 0.85
	writeRank = 0.50
)

// quantile returns the q-quantile of vs by nearest rank.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

// quartiles returns the first and third quartile by the method of Python's
// statistics.quantiles(values, n=4) — the rule the builder's contract and
// -agree both measure spread with. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	med := median(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / med
}

// percentile reads the q-quantile of an ascending slice (nearest rank).
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	return float64(sorted[min(i, len(sorted)-1)])
}
