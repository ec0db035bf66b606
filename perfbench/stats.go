package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is an anecdote, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, which it sorts in place. It fails when fewer than minBeyond
// samples lie beyond the percentile's rank, so a run too short for its
// tail cannot report one.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	slices.Sort(samples)
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	return samples[rank-1], nil
}

// median returns the middle of samples (the mean of the two middle values
// for an even count), sorting them in place; 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	slices.Sort(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

// ms and us convert a duration to fractional milliseconds and
// microseconds, keeping every digit the clock gave.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
