package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a p99 from fewer than ~1000 samples is an extreme value,
// not a percentile.
const minBeyond = 10

// pct is one percentile with its support: n samples, below and beyond
// of them ranked under and above the reported one.
type pct struct {
	value            float64
	n, below, beyond int
}

// ok reports whether the percentile has minBeyond samples on its far
// side: above a high percentile, under a low one.
func (p pct) ok(q float64) bool {
	if q < 0.5 {
		return p.below >= minBeyond
	}
	return p.beyond >= minBeyond
}

// quantile is the nearest-rank q-quantile of sorted.
func quantile(sorted []float64, q float64) pct {
	n := len(sorted)
	if n == 0 {
		return pct{}
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return pct{value: sorted[i], n: n, below: i, beyond: n - 1 - i}
}

// hist is a log-linear histogram of positive values: histSub buckets
// per power of two, each keeping its count and the sum of its samples.
// A quantile reads as the mean of the samples in its bucket, within
// 0.2% of the sample at its rank, while memory stays fixed however many
// samples a run takes.
type hist struct {
	counts []uint32
	sums   []float64
	n      int
}

const (
	histSub    = 512
	histMinExp = -6 // values from 2^-7 to 2^31 (µs: 8 ns to 36 minutes)
	histMaxExp = 31
)

func (h *hist) add(v float64) {
	if h.counts == nil {
		h.counts = make([]uint32, (histMaxExp-histMinExp)*histSub)
		h.sums = make([]float64, len(h.counts))
	}
	i := 0
	if v > 0 {
		frac, exp := math.Frexp(v) // v = frac·2^exp, frac in [0.5, 1)
		i = max(0, min((exp-histMinExp)*histSub+int((frac-0.5)*2*histSub), len(h.counts)-1))
	}
	h.counts[i]++
	h.sums[i] += v
	h.n++
}

// quantile is the nearest-rank q-quantile, read as the mean of its
// bucket.
func (h *hist) quantile(q float64) pct {
	if h.n == 0 {
		return pct{}
	}
	rank := max(0, min(int(math.Ceil(q*float64(h.n)))-1, h.n-1))
	seen := 0
	for i, c := range h.counts {
		if seen += int(c); seen > rank {
			return pct{value: h.sums[i] / float64(c), n: h.n, below: rank, beyond: h.n - 1 - rank}
		}
	}
	panic("perfbench: histogram count out of step")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
