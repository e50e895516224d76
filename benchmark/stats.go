package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of a
// sample sorted ascending: the smallest value with at least q of the
// sample at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of a sample (mean of the two middles when
// the size is even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sliceRates splits the completed operations of a phase into `slices`
// equal consecutive groups and returns the groups' rates, in units per
// second. doneAt holds each successful operation's completion offset
// from the phase start, ascending; every operation carries `units`
// priced problems. Slicing by operations, not by wall time, keeps a slow
// workload's few operations per slice from quantising the rate; the
// caller's median over slices keeps a neighbour's burst on the shared
// box from moving a throughput.
// duration, when non-nil, maps a slice's interval to the seconds it
// counts for (the run quotes them at reference speed); nil counts them
// as measured.
func sliceRates(doneAt []float64, units float64, slices int, duration func(from, to float64) float64) []float64 {
	n := len(doneAt)
	if slices > n {
		slices = n
	}
	if duration == nil {
		duration = func(from, to float64) float64 { return to - from }
	}
	rates := make([]float64, 0, slices)
	prevEnd, prevIdx := 0.0, 0
	for g := 1; g <= slices; g++ {
		idx := g * n / slices
		end := doneAt[idx-1]
		if d := duration(prevEnd, end); d > 0 {
			rates = append(rates, float64(idx-prevIdx)*units/d)
		}
		prevEnd, prevIdx = end, idx
	}
	return rates
}

// quartileSpread returns the distance between the first and third
// quartile of vs as a share of its median, with the quartiles computed
// the way Python's statistics.quantiles(vs, n=4) does (the exclusive
// method) — the acceptance rule the benchmark contract applies to ten
// runs of one cell.
func quartileSpread(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(s)
}
