package main

import (
	"math"
	"slices"
	"time"
)

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects a run's named measurements.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// median is the nearest-rank median of xs, or 0 for no samples. It sorts
// xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[(len(xs)+1)/2-1]
}

// tail is the 99th percentile of xs when at least ten samples lie beyond
// it, and otherwise the highest percentile that has ten samples beyond it,
// but never below the median: a run of a few dozen counting runs has no
// meaningful 99th percentile, and its maximum is one machine hiccup. It
// sorts xs in place.
func tail(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	slices.Sort(xs)
	r := min(int(math.Ceil(0.99*float64(n))), n-10)
	r = max(r, (n+1)/2)
	return xs[r-1]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durations converts a list of durations to float seconds scaled by unit
// (time.Second for s, time.Millisecond for ms, …).
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// sum adds up durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
