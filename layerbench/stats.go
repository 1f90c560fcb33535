package main

import (
	"math"
	"sort"
	"sync"
)

// samples is a goroutine-safe list of observations.
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

// sorted returns a sorted copy of the observations.
func (s *samples) sorted() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.v...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile (0 < q <= 1) of sorted data,
// 0 when there is none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
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

// median of unsorted data (the input is not modified).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tail is the highest percentile backed by at least tailSupport samples
// beyond it: the largest q with n·(1−q) ≥ tailSupport, rounded down to
// a tenth of a percent. It returns q, the latency at q, and n; with fewer
// than tailSupport samples no percentile is supported and q is 0.
type tail struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

const tailSupport = 10

func supportedTail(sorted []float64) tail {
	n := len(sorted)
	if n <= tailSupport {
		return tail{N: n}
	}
	q := math.Floor((1-float64(tailSupport)/float64(n))*1000) / 1000
	return tail{Q: q, Value: quantile(sorted, q), N: n}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
