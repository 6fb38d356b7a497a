package main

import (
	"math"
	"testing"
)

func TestPercentileSmallSamples(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{7}, 90, 7},
		{[]float64{3, 1}, 50, 2},
		{[]float64{3, 1}, 0, 1},
		{[]float64{3, 1}, 100, 3},
		{[]float64{5, 1, 3}, 50, 3},
		{[]float64{5, 1, 3}, 25, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{4, 1, 3, 2}, 75, 3.25},
		{[]float64{10, 20, 30, 40, 50}, 90, 46},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no data should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestRatioAndMax(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
	if maxOf(nil) != 0 || maxOf([]float64{-2, -5}) != -2 || maxOf([]float64{1, 9, 3}) != 9 {
		t.Error("maxOf")
	}
}
