package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 5}, 5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// ascending returns 1, 2, …, n in reverse order, so tail must sort.
func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct int
		wantVal float64
	}{
		{40, 75, 30},   // 10 samples beyond rank 30
		{41, 75, 31},   // rank ⌈30.75⌉ = 31, still 10 beyond
		{50, 80, 40},   // rank 40
		{100, 90, 90},  // p90
		{320, 96, 308}, // ⌊100·310/320⌋ = 96, rank ⌈307.2⌉ = 308, 12 beyond
		{1000, 99, 990},
	} {
		xs := ascending(tc.n)
		pct, v, ok := tail(xs)
		if !ok || pct != tc.wantPct || v != tc.wantVal {
			t.Errorf("tail(n=%d) = p%d %v (ok %v), want p%d %v", tc.n, pct, v, ok, tc.wantPct, tc.wantVal)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < tailBeyond {
			t.Errorf("tail(n=%d) leaves %d samples beyond, want at least %d", tc.n, beyond, tailBeyond)
		}
		// One percentile higher would leave fewer than ten beyond.
		if next := ((pct+1)*tc.n + 99) / 100; tc.n-next >= tailBeyond {
			t.Errorf("tail(n=%d): p%d still has %d beyond, so p%d is not the highest", tc.n, pct+1, tc.n-next, pct)
		}
	}
	for _, n := range []int{0, 1, 10, 39} {
		if _, _, ok := tail(ascending(n)); ok {
			t.Errorf("tail(n=%d) reported a tail below %d samples", n, minTailSamples)
		}
	}
}

// TestWorkloadsHaveTails pins what perLayer relies on: every workload's
// fixed steps give each timed operation at least minTailSamples samples.
func TestWorkloadsHaveTails(t *testing.T) {
	for _, w := range workloads {
		if w.steps < minTailSamples || w.aceQueries < 1 || w.blindQueries < 1 || w.blindQueries > w.aceQueries {
			t.Errorf("%s: %d steps, %d ACE and %d blind floods per step", w.name, w.steps, w.aceQueries, w.blindQueries)
		}
		if w.setups < 1 {
			t.Errorf("%s: %d set-ups", w.name, w.setups)
		}
	}
}
