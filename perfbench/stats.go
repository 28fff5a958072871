package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is a log-linear histogram of non-negative nanosecond values:
// values below 2*subCount are exact, larger ones fall into subCount
// linear sub-buckets per power of two (under 1% wide). Quantiles
// interpolate inside the bucket by rank, so two runs that land in the
// same bucket still read differently.
type hist struct {
	counts []uint64
	n      uint64
}

const (
	subBits  = 7
	subCount = 1 << subBits
)

func newHist() *hist { return &hist{counts: make([]uint64, 40*subCount)} }

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 2*subCount {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return shift*subCount + int(v>>uint(shift))
}

// bucketBounds returns the first value of bucket i and its width.
func bucketBounds(i int) (lo, width float64) {
	if i < 2*subCount {
		return float64(i), 1
	}
	shift := i/subCount - 1
	return float64((i - shift*subCount) << uint(shift)), float64(uint64(1) << uint(shift))
}

func (h *hist) add(v int64) {
	i := bucketOf(v)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0..1) in the recorded unit, or NaN
// when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, w := bucketBounds(i)
			return lo + w*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketBounds(len(h.counts) - 1)
	return lo + w
}

// summary is a metric's spread over the rounds of one run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN(), Min: math.NaN(), Max: math.NaN()}
	}
	q1, q3 := s[0], s[len(s)-1]
	if len(s) >= 2 {
		q := quartiles(s)
		q1, q3 = q[0], q[2]
	}
	return summary{Median: median(s), Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile interpolates the q-quantile (0..1) of raw samples, for
// sample counts too small for a histogram's buckets.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles returns the three cut points of sorted data (len >= 2) by
// the method Python's statistics.quantiles(data, n=4) uses by default
// ("exclusive"), so spreads computed here and there agree.
func quartiles(sorted []float64) [3]float64 {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		out[i-1] = (sorted[j-1]*(n-delta) + sorted[j]*delta) / n
	}
	return out
}
