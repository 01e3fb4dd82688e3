package main

import "testing"

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	ms := benchMetric{Name: "p50_ms", Better: "lower", Bound: 0.1}
	steady := func(base float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, base+float64(i%3)*0.01*base)
		}
		return xs
	}
	noisy := []float64{10, 14, 8, 12, 9, 15, 7, 13, 11, 10}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		m              benchMetric
		want           string
	}{
		{"within bound", steady(10), steady(10.5), ms, "ok"},
		{"worse past bound", steady(10), steady(12), ms, "regression"},
		{"spread wider than bound", noisy, noisy, ms, "unresolved"},
		{"noisy but every change run better", noisy, steady(5), ms, "gain"},
		{"nine of ten pairs better, gap beyond parent spread", steady(10), steady(8), ms, "gain"},
		{"higher is better", steady(10), steady(8), benchMetric{Better: "higher", Bound: 0.1}, "regression"},
		{"no bound", steady(10), steady(12), benchMetric{Better: "lower"}, "-"},
	} {
		if got := verdict(tc.parent, tc.change, tc.m); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
