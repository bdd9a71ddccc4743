package main

import (
	"math"
	"sort"
	"time"
)

// percentile is the exact sample percentile with linear interpolation
// between adjacent order statistics; it sorts a copy. NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := q * float64(len(s)-1)
	lo := int(rank)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// windows groups values into n consecutive windows of the given width
// by their offset from the phase start; offsets outside [0, n*width)
// are dropped.
func windows(at []time.Duration, vals []float64, width time.Duration, n int) [][]float64 {
	out := make([][]float64, n)
	for i, t := range at {
		if t < 0 {
			continue
		}
		if w := int(t / width); w < n {
			out[w] = append(out[w], vals[i])
		}
	}
	return out
}

// windowedPercentile is the median over windows of each window's
// q-percentile. One scheduler hiccup on a shared box costs one window,
// where it would own the whole-run tail.
func windowedPercentile(at []time.Duration, vals []float64, width time.Duration, n int, q float64) float64 {
	var per []float64
	for _, w := range windows(at, vals, width, n) {
		if len(w) > 0 {
			per = append(per, percentile(w, q))
		}
	}
	return median(per)
}

// windowedRate is the median over windows of events per second.
func windowedRate(at []time.Duration, width time.Duration, n int) float64 {
	ones := make([]float64, len(at))
	per := make([]float64, 0, n)
	for _, w := range windows(at, ones, width, n) {
		per = append(per, float64(len(w))/width.Seconds())
	}
	return median(per)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Limits past which an open-loop run says more about the generator than
// about the server.
const (
	maxLateP99   = 5 * time.Millisecond
	maxDriverCPU = 0.6 // cores
)

// runValid applies the invalid-run rule.
func runValid(lateP99 time.Duration, driverCPU float64) bool {
	return lateP99 <= maxLateP99 && driverCPU <= maxDriverCPU
}
