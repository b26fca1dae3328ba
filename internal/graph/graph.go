// Package graph provides the weighted-graph primitives shared by the
// physical-topology substrate and the ACE optimizer: compact adjacency
// storage, Dijkstra shortest paths and a bucketed shortest-path kernel
// over a frozen CSR copy, Prim and Kruskal minimum spanning trees,
// bounded-depth closures, and connectivity checks.
package graph

import "fmt"

// Arc is one directed half of an undirected weighted edge.
type Arc struct {
	To int
	W  float64
}

// Edge is an undirected weighted edge between node indices.
type Edge struct {
	U, V int
	W    float64
}

// Graph is an undirected weighted graph over nodes 0..N-1 with adjacency
// lists. It is the static representation used for physical topologies;
// the overlay layer keeps its own mutable neighbor sets.
type Graph struct {
	adj   [][]Arc
	edges int
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{adj: make([][]Arc, n)}
}

// N reports the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M reports the number of undirected edges.
func (g *Graph) M() int { return g.edges }

// AddEdge adds an undirected edge u—v with weight w. It panics on
// out-of-range nodes, self-loops, and NaN or negative weights: all
// indicate construction bugs, not runtime conditions. A negative edge
// of an undirected graph is a negative cycle, on which no shortest-path
// kernel here terminates.
func (g *Graph) AddEdge(u, v int, w float64) {
	if u < 0 || v < 0 || u >= len(g.adj) || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj)))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if !(w >= 0) {
		panic(fmt.Sprintf("graph: edge (%d,%d) weight %v is NaN or negative", u, v, w))
	}
	g.adj[u] = append(g.adj[u], Arc{To: v, W: w})
	g.adj[v] = append(g.adj[v], Arc{To: u, W: w})
	g.edges++
}

// HasEdge reports whether an edge u—v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) {
		return false
	}
	for _, a := range g.adj[u] {
		if a.To == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u. The returned slice is owned
// by the graph and must not be mutated by callers.
func (g *Graph) Neighbors(u int) []Arc { return g.adj[u] }

// Degree reports the degree of u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Edges returns every undirected edge once (u < v by construction order is
// not guaranteed; each appears exactly once).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u := range g.adj {
		for _, a := range g.adj[u] {
			if u < a.To {
				out = append(out, Edge{U: u, V: a.To, W: a.W})
			}
		}
	}
	return out
}
