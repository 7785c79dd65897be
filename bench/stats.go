package main

import (
	"math"
	"sort"
)

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(ns []int64) float64 {
	var sum float64
	for _, v := range ns {
		sum += float64(v)
	}
	return ratio(sum, float64(len(ns)))
}

// trimmedMean is the mean of the fastest share of the samples.
func trimmedMean(ns []int64, share float64) float64 {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return mean(s[:int(math.Ceil(share*float64(len(s))))])
}

// percentile is the exact q-quantile (nearest rank) of all samples.
func percentile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(0, min(rank, len(s)-1))])
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles are the first and third quartile of two or more values as
// Python's statistics.quantiles(vs, n=4) gives them: the rule the driver
// applies to ten runs.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(i*m/4, len(s)-1))
		delta := i*m - j*4 // outside 0..4 where the clamp extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
