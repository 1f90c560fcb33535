package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestQuantileNearestRank(t *testing.T) {
	v := seq(10)
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v, want 0", got)
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{
		{1000, 0.99},  // exactly 10 samples beyond p99
		{2000, 0.995}, // 10 beyond p99.5
		{500, 0.98},   // p99 would leave 5; p98 leaves 10
		{101, 0.900},  // 1-10/101 = 0.90099 → rounded down to 0.900
	} {
		tl := supportedTail(seq(c.n))
		if math.Abs(tl.Q-c.wantQ) > 1e-9 || tl.N != c.n {
			t.Errorf("n=%d: tail q=%v n=%d, want q=%v", c.n, tl.Q, tl.N, c.wantQ)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > tl.Value {
				beyond++
			}
		}
		if beyond < tailSupport {
			t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, 100*tl.Q)
		}
	}
	if tl := supportedTail(seq(10)); tl.Q != 0 || tl.N != 10 {
		t.Errorf("10 samples support no percentile, got %+v", tl)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	v := []float64{3, 1, 2}
	if m := median(v); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if v[0] != 3 {
		t.Error("median sorted its input")
	}
}
