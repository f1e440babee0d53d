// Package stats provides the statistical machinery used to validate the
// paper's quantitative claims: online moments, exact percentiles, log-bucket
// histograms, least-squares and power-law fits (for the divergence rate of
// Theorem 6), and chi-square goodness-of-fit tests (for the rank-distribution
// equivalence of Theorem 2).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates count, mean, and variance online in a numerically
// stable way. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates x into the summary.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance (0 if fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation (0 if empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 if empty).
func (w *Welford) Max() float64 { return w.max }

// Merge combines another summary into w, as if all of other's observations
// had been added to w.
func (w *Welford) Merge(other Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = other
		return
	}
	n := w.n + other.n
	d := other.mean - w.mean
	w.m2 += other.m2 + d*d*float64(w.n)*float64(other.n)/float64(n)
	w.mean += d * float64(other.n) / float64(n)
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
	w.n = n
}

func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		w.n, w.Mean(), w.Std(), w.min, w.max)
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between order statistics. It sorts a copy; xs is unmodified.
// It panics on an empty slice or p outside [0,100].
func Percentile(xs []float64, p float64) float64 {
	ys := make([]float64, len(xs))
	copy(ys, xs)
	sort.Float64s(ys)
	return SortedPercentile(ys, p)
}

// SortedPercentile is Percentile of an ascending ys, without the copy and
// the sort: a caller that takes several percentiles of one sample sorts it
// once. It panics on an empty slice or p outside [0,100].
func SortedPercentile(ys []float64, p float64) float64 {
	if len(ys) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: Percentile %v outside [0,100]", p))
	}
	if len(ys) == 1 {
		return ys[0]
	}
	pos := p / 100 * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return ys[lo]
	}
	frac := pos - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

// Median returns the 50th percentile of xs — the midpoint of the two
// central order statistics for even lengths. It panics on an empty slice
// (like Percentile, which it delegates to).
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
