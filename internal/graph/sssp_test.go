package graph

import (
	"math"
	"testing"
)

// RequireSSSPMatchesDijkstra runs CSR.SSSP from every source of g (and
// from two out-of-range sources) through one shared scratch and demands
// float64 distances bit-identical to Dijkstra's. It is exported for the
// topology-based cases in package graph_test.
func RequireSSSPMatchesDijkstra(t testing.TB, g *Graph) {
	t.Helper()
	c := NewCSR(g)
	var s SSSPScratch
	for src := -1; src <= g.N(); src++ {
		want, _ := Dijkstra(g, src)
		got := c.SSSP(&s, src)
		if len(got) != len(want) {
			t.Fatalf("src %d: %d distances, want %d", src, len(got), len(want))
		}
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("src %d → %d: SSSP %v (%#x), Dijkstra %v (%#x)",
					src, v, got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
			}
		}
	}
}

func TestSSSPAdversarial(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Graph
	}{
		{"single node", func() *Graph { return New(1) }},
		{"empty", func() *Graph { return New(0) }},
		{"zero weights", func() *Graph {
			// A zero-weight clique hanging off weighted links: every
			// relaxation inside it lands in the bucket being swept.
			g := New(8)
			for u := 0; u < 4; u++ {
				for v := u + 1; v < 4; v++ {
					g.AddEdge(u, v, 0)
				}
			}
			g.AddEdge(3, 4, 2.5)
			g.AddEdge(4, 5, 0)
			g.AddEdge(5, 6, 0.1)
			g.AddEdge(4, 6, 0.2)
			g.AddEdge(6, 7, 0)
			return g
		}},
		{"all zero", func() *Graph {
			g := New(5)
			for v := 1; v < 5; v++ {
				g.AddEdge(v-1, v, 0)
			}
			return g
		}},
		{"all equal (ties)", func() *Graph {
			g := New(36) // 6×6 grid: many equal-cost shortest paths
			for r := 0; r < 6; r++ {
				for col := 0; col < 6; col++ {
					u := r*6 + col
					if col < 5 {
						g.AddEdge(u, u+1, 3)
					}
					if r < 5 {
						g.AddEdge(u, u+6, 3)
					}
				}
			}
			return g
		}},
		{"disconnected", func() *Graph {
			g := New(7)
			g.AddEdge(0, 1, 1)
			g.AddEdge(1, 2, 2)
			g.AddEdge(3, 4, 0.5)
			g.AddEdge(4, 5, 0.25) // node 6 isolated
			return g
		}},
		{"inexact sums", func() *Graph {
			// 0.1+0.2 != 0.3 in float64: the route with the smaller
			// left-to-right sum must win on bits, not on real values.
			g := New(5)
			g.AddEdge(0, 1, 0.1)
			g.AddEdge(1, 2, 0.2)
			g.AddEdge(0, 2, 0.3)
			g.AddEdge(2, 3, 0.7)
			g.AddEdge(0, 3, 1)
			g.AddEdge(3, 4, 1e-17)
			return g
		}},
		{"infinite link", func() *Graph {
			g := New(4)
			g.AddEdge(0, 1, math.Inf(1))
			g.AddEdge(1, 2, 1)
			g.AddEdge(0, 3, 2)
			g.AddEdge(3, 2, math.Inf(1))
			return g
		}},
		{"spread delays", spreadGraph},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			RequireSSSPMatchesDijkstra(t, tc.build())
		})
	}
}

// spreadGraph has link delays from 1e-3 to 1e3: one bucket per smallest
// link would need a million slots, so NewCSR raises Δ and relaxations
// land in the bucket being swept.
func spreadGraph() *Graph {
	const n = 200
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v-1, v, 1e-3*float64(v%7+1))
	}
	for v := 0; v+13 < n; v += 3 {
		g.AddEdge(v, v+13, 1e3/float64(v%5+1))
		g.AddEdge(v, v+2, 0.75+float64(v%11))
	}
	return g
}

func TestSSSPRaisesDeltaForSpreadDelays(t *testing.T) {
	c := NewCSR(spreadGraph())
	if delta := 1 / c.inv; !(delta > 1e-3) {
		t.Fatalf("Δ = %v, want it raised above the smallest link 1e-3", delta)
	}
	if slots := c.mask + 1; slots > maxRingSlots {
		t.Fatalf("ring holds %d slots, want at most %d", slots, maxRingSlots)
	}
}

func TestAddEdgeRejectsBadWeights(t *testing.T) {
	for _, w := range []float64{-1, -1e-300, math.Inf(-1), math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge accepted weight %v", w)
				}
			}()
			New(2).AddEdge(0, 1, w)
		}()
	}
	g := New(2)
	g.AddEdge(0, 1, 0) // zero and +Inf stay legal
	g.AddEdge(0, 1, math.Inf(1))
}

// fuzzWeights is the weight palette FuzzSSSP draws from: zero (of both
// signs), repeated values, sums that round (0.1, 0.2), widely spread
// magnitudes that make NewCSR raise Δ, a subnormal, and +Inf.
var fuzzWeights = [...]float64{
	0, 0, 1, 1, 1, 2, 3, 0.1, 0.2, 0.3, 0.5, 7.25, 1e-3, 1e3, 1e6,
	math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1e300, math.Inf(1),
}

// decodeFuzzGraph turns fuzz bytes into a small graph: the first byte
// picks 1–24 nodes, every following triple (u, v, weight index) adds an
// edge, self-loops skipped. Parallel edges are kept.
func decodeFuzzGraph(data []byte) *Graph {
	if len(data) == 0 {
		return New(1)
	}
	n := 1 + int(data[0])%24
	g := New(n)
	for i := 1; i+2 < len(data); i += 3 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u != v {
			g.AddEdge(u, v, fuzzWeights[int(data[i+2])%len(fuzzWeights)])
		}
	}
	return g
}

// FuzzSSSP checks CSR.SSSP against Dijkstra bit for bit on small graphs
// decoded from the input, from every source.
func FuzzSSSP(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{3, 0, 1, 0, 1, 2, 0, 0, 2, 2})                        // zero-weight triangle
	f.Add([]byte{5, 0, 1, 7, 1, 2, 8, 0, 2, 9, 2, 3, 2, 3, 4, 18})     // 0.1+0.2 vs 0.3, +Inf
	f.Add([]byte{6, 0, 1, 12, 1, 2, 14, 2, 3, 16, 3, 4, 17, 4, 5, 13}) // spread magnitudes
	f.Add([]byte{8, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 0, 2, 0, 2, 3, 1, 3, 4, 5, 6, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		RequireSSSPMatchesDijkstra(t, decodeFuzzGraph(data))
	})
}
