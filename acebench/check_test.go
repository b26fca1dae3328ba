package main

import (
	"math"
	"testing"
)

// handGraph is a 6-vertex graph with one dead vertex (4) and an
// isolated live vertex (5):
//
//	0 —1— 1 —1— 2
//	 \         /
//	  5——4*——1      (0-3 cost 5, 3-2 cost 1; 4 is dead, linked to 0 and 3)
//	   3
func handGraph() (adj [][]int, live []bool, w map[[2]int]float64) {
	adj = [][]int{
		0: {1, 3, 4},
		1: {0, 2},
		2: {1, 3},
		3: {0, 2, 4},
		4: {0, 3},
		5: {},
	}
	live = []bool{true, true, true, true, false, true}
	w = map[[2]int]float64{
		{0, 1}: 1, {1, 2}: 1, {2, 3}: 1, {0, 3}: 5, {0, 4}: 0.1, {3, 4}: 0.1,
	}
	return
}

func edgeCost(w map[[2]int]float64) func(u, v int) float64 {
	return func(u, v int) float64 {
		if u > v {
			u, v = v, u
		}
		return w[[2]int{u, v}]
	}
}

func TestComponent(t *testing.T) {
	adj, live, _ := handGraph()
	nbrs := func(u int) []int { return adj[u] }
	alive := func(u int) bool { return live[u] }
	if got := component(6, 0, nbrs, alive); len(got) != 4 || got[0] != 0 {
		t.Errorf("component(0) = %v, want the 4 live connected vertices from 0", got)
	}
	if got := component(6, 5, nbrs, alive); len(got) != 1 {
		t.Errorf("component(5) = %v, want the isolated vertex alone", got)
	}
}

func TestShortestPaths(t *testing.T) {
	adj, live, w := handGraph()
	dist := shortestPaths(6, 0, func(u int) []int { return adj[u] }, func(u int) bool { return live[u] }, edgeCost(w))
	// 0→3 directly costs 5, around 0-1-2-3 costs 3; the cheap path
	// through dead vertex 4 (0.2) must not be taken.
	want := []float64{0, 1, 2, 3, math.Inf(1), math.Inf(1)}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], want[i])
		}
	}
}

func TestMSTWeight(t *testing.T) {
	// Four points on a line at 0, 1, 3, 7 with |x−y| weights: the MST
	// links neighbors, weight 1 + 2 + 4 = 7.
	xs := []float64{3, 0, 7, 1}
	if got := mstWeight(4, func(i, j int) float64 { return math.Abs(xs[i] - xs[j]) }); got != 7 {
		t.Errorf("line MST weight = %v, want 7", got)
	}
	// A square with unit sides and diagonals of 1.5: three sides.
	sq := [][]float64{{0, 1, 1.5, 1}, {1, 0, 1, 1.5}, {1.5, 1, 0, 1}, {1, 1.5, 1, 0}}
	if got := mstWeight(4, func(i, j int) float64 { return sq[i][j] }); got != 3 {
		t.Errorf("square MST weight = %v, want 3", got)
	}
	if mstWeight(1, nil) != 0 || mstWeight(0, nil) != 0 {
		t.Error("a single vertex has an empty tree")
	}
}

func TestCloseRel(t *testing.T) {
	if !closeRel(1e6, 1e6+0.5, 1e-6) || closeRel(1e6, 1e6+2, 1e-6) || !closeRel(0, 0, 1e-6) {
		t.Error("closeRel misjudges relative tolerance")
	}
}

func TestCheckerCounts(t *testing.T) {
	var c checker
	c.expect(true, "fine")
	c.expect(false, "bad %d", 7)
	if c.attempted != 2 || c.failed != 1 || len(c.messages) != 1 || c.messages[0] != "bad 7" {
		t.Errorf("checker = %+v", c)
	}
}
