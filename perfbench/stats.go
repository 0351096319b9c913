package main

import (
	"math"
	"sort"
)

// Every percentile the benchmark reports is computed here, from the raw
// samples the harness itself recorded. The obs histograms are never read
// for quantiles: they keep log2 buckets and report a bucket's upper bound,
// which can exceed the largest sample.

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
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

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1) and
// how many samples lie strictly beyond it. A p99 is only meaningful when
// beyond >= 10.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	value = s[i]
	beyond = len(s) - sort.SearchFloat64s(s, math.Nextafter(value, math.Inf(1)))
	return value, beyond
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nsTo converts nanosecond samples to the given unit (1e6 for ms, 1e9
// for s).
func nsTo(ns []int64, unit float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / unit
	}
	return out
}
