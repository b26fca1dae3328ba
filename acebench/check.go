package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"ace"
	"ace/internal/overlay"
	"ace/internal/snap"
)

// The checks below recompute what the program reports with code of the
// benchmark's own: a BFS, a Dijkstra and a Prim written here, and
// properties the method guarantees. None compares against stored output.

// component returns the vertices reachable from src over edges whose
// endpoints are both live, in BFS order.
func component[T ~int](n int, src T, nbrs func(T) []T, live func(T) bool) []T {
	seen := make([]bool, n)
	seen[src] = true
	order := []T{src}
	for head := 0; head < len(order); head++ {
		for _, v := range nbrs(order[head]) {
			if !seen[v] && live(v) {
				seen[v] = true
				order = append(order, v)
			}
		}
	}
	return order
}

// distItem is one entry of shortestPaths' binary heap.
type distItem[T ~int] struct {
	d float64
	v T
}

// shortestPaths returns the least total cost from src to every vertex
// over edges between live vertices (+Inf where unreachable): Dijkstra
// with a binary heap and lazy deletion.
func shortestPaths[T ~int](n int, src T, nbrs func(T) []T, live func(T) bool, cost func(u, v T) float64) []float64 {
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	heap := []distItem[T]{{0, src}}
	for len(heap) > 0 {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(heap) && heap[l].d < heap[m].d {
				m = l
			}
			if r < len(heap) && heap[r].d < heap[m].d {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		if top.d > dist[top.v] {
			continue
		}
		for _, v := range nbrs(top.v) {
			if !live(v) {
				continue
			}
			if d := top.d + cost(top.v, v); d < dist[v] {
				dist[v] = d
				heap = append(heap, distItem[T]{d, v})
				for i := len(heap) - 1; i > 0; {
					p := (i - 1) / 2
					if heap[p].d <= heap[i].d {
						break
					}
					heap[i], heap[p] = heap[p], heap[i]
					i = p
				}
			}
		}
	}
	return dist
}

// mstWeight returns the weight of a minimum spanning tree of the
// complete graph on s vertices with edge weights w: dense O(s²) Prim.
func mstWeight(s int, w func(i, j int) float64) float64 {
	if s <= 1 {
		return 0
	}
	in := make([]bool, s)
	key := make([]float64, s)
	for i := range key {
		key[i] = math.Inf(1)
	}
	key[0] = 0
	var total float64
	for range s {
		u := -1
		for v := range s {
			if !in[v] && (u < 0 || key[v] < key[u]) {
				u = v
			}
		}
		in[u] = true
		total += key[u]
		for v := range s {
			if !in[v] {
				if c := w(u, v); c < key[v] {
					key[v] = c
				}
			}
		}
	}
	return total
}

// closeRel reports whether a and b agree within rel of the larger
// magnitude (exactly, when both are zero or both infinite).
func closeRel(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// checker counts check operations and their failures, and keeps the
// first few failure messages for the report.
type checker struct {
	attempted, failed int
	messages          []string
}

// expect records one check operation; ok false counts a failure.
func (c *checker) expect(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	c.note(format, args...)
}

// note keeps a failure message for the report, the first few only.
func (c *checker) note(format string, args ...any) {
	if len(c.messages) < 20 {
		c.messages = append(c.messages, fmt.Sprintf(format, args...))
	}
}

// checkAdjacency verifies, after a step, that every live peer's
// adjacency is sorted with no duplicates, holds no self-loop, and is
// symmetric among live peers. Entries naming dead peers are crash
// debris and are allowed.
func checkAdjacency(c *checker, step int, net *overlay.Network) {
	for p := range overlay.PeerID(net.N()) {
		if !net.Alive(p) {
			continue
		}
		nb := net.NeighborsView(p)
		for i, q := range nb {
			if i > 0 && nb[i-1] >= q {
				c.expect(false, "step %d: peer %d adjacency not strictly sorted at %d", step, p, i)
				return
			}
			if q == p {
				c.expect(false, "step %d: peer %d lists itself", step, p)
				return
			}
			if net.Alive(q) {
				if _, ok := slices.BinarySearch(net.NeighborsView(q), p); !ok {
					c.expect(false, "step %d: edge %d-%d not symmetric", step, p, q)
					return
				}
			}
		}
	}
	c.expect(true, "")
}

// checkConservation verifies that every transmission of a flood is
// accounted for exactly once: a first arrival at a reached peer (all but
// the source), a duplicate, a loss, or a dead letter.
func checkConservation(c *checker, step int, kind string, q ace.QueryResult) {
	got := q.Scope - 1 + q.Duplicates + q.Lost + q.DeadLetters
	c.expect(got == q.Transmissions, "step %d: %s flood: scope-1+dup+lost+dead = %d, transmissions %d",
		step, kind, got, q.Transmissions)
}

// floodRef is the independent reference for one loss-free flood from a
// source: its live component and shortest overlay delays.
type floodRef struct {
	comp []overlay.PeerID
	dist []float64 // computed on demand by shortestDelays
}

func liveComponent(net *overlay.Network, src overlay.PeerID) floodRef {
	return floodRef{comp: component(net.N(), src, net.NeighborsView, net.Alive)}
}

// shortestDelays fills ref.dist with the overlay shortest-path delays
// from src, reading each link's cost from the sender's distance vector
// (CostsFrom, which does not count as an oracle query).
func (ref *floodRef) shortestDelays(net *overlay.Network, src overlay.PeerID) {
	ref.dist = shortestPaths(net.N(), src, net.NeighborsView, net.Alive,
		func(u, v overlay.PeerID) float64 { return net.CostsFrom(u).To(v) })
}

// checkBlind verifies a loss-free blind flood against the reference:
// it reaches the source's whole live component, sends Σ degree − (scope
// − 1) messages (every reached peer relays to all neighbors but the
// sender), and its first response is the round trip of the shortest
// overlay path to the nearest responder.
func checkBlind(c *checker, step int, net *overlay.Network, ref *floodRef, src overlay.PeerID, responders []overlay.PeerID, q ace.QueryResult) {
	c.expect(q.Scope == len(ref.comp), "step %d: blind scope %d, live component %d", step, q.Scope, len(ref.comp))
	sum := 0
	for _, p := range ref.comp {
		sum += net.Degree(p)
	}
	want := sum - (len(ref.comp) - 1)
	c.expect(q.Transmissions == want, "step %d: blind transmissions %d, want %d", step, q.Transmissions, want)
	if ref.dist == nil {
		ref.shortestDelays(net, src)
	}
	best := math.Inf(1)
	for _, r := range responders {
		best = math.Min(best, ref.dist[r])
	}
	ok := math.Abs(q.FirstResponse-2*best) <= 1e-4 || (math.IsInf(best, 1) && math.IsInf(q.FirstResponse, 1))
	c.expect(ok, "step %d: blind first response %.6f ms, want 2×%.6f", step, q.FirstResponse, best)
}

// checkTree verifies p's multicast tree: it spans the closure with
// |closure|−1 edges between closure members, and weighs as much as the
// minimum spanning tree of the complete closure graph. Link costs are
// read from the lower-id endpoint's distance vector, as the optimizer
// prices them.
func checkTree(c *checker, step int, sys *ace.System, p overlay.PeerID) {
	st := sys.Optimizer().State(p)
	if st == nil {
		c.expect(false, "step %d: live peer %d has no state after the exchange", step, p)
		return
	}
	net := sys.Network()
	cost := func(u, v overlay.PeerID) float64 {
		if u > v {
			u, v = v, u
		}
		return net.CostsFrom(u).To(v)
	}
	members := st.Closure
	pos := make(map[overlay.PeerID]int, len(members))
	for i, u := range members {
		pos[u] = i
	}
	edges, weight := 0, 0.0
	parent := make([]int, len(members))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, u := range members {
		for _, v := range st.TreeNeighbors(u) {
			j, ok := pos[v]
			if !ok {
				c.expect(false, "step %d: peer %d tree edge %d-%d leaves the closure", step, p, u, v)
				return
			}
			if v < u {
				continue // each undirected edge counted from its lower end
			}
			edges++
			weight += cost(u, v)
			parent[find(pos[u])] = find(j)
		}
	}
	root := find(0)
	spans := true
	for i := range members {
		if find(i) != root {
			spans = false
			break
		}
	}
	c.expect(spans && edges == len(members)-1, "step %d: peer %d tree has %d edges over %d members (spanning %v)",
		step, p, edges, len(members), spans)
	want := mstWeight(len(members), func(i, j int) float64 { return cost(members[i], members[j]) })
	c.expect(closeRel(weight, want, 1e-6), "step %d: peer %d tree weight %.9g, MST %.9g", step, p, weight, want)
}

// checkCheckpoint verifies that the store returns the step just saved
// and that re-encoding what it returns reproduces the saved bytes.
func checkCheckpoint(c *checker, step int, loaded *snap.Snapshot, loadErr error, saved []byte) {
	if loadErr != nil {
		c.expect(false, "step %d: load checkpoint: %v", step, loadErr)
		return
	}
	again, err := snap.Encode(loaded)
	c.expect(err == nil && loaded.Meta.Step == int64(step) && bytes.Equal(again, saved),
		"step %d: checkpoint round trip: loaded step %d, re-encoded %d bytes vs %d saved (err %v)",
		step, loaded.Meta.Step, len(again), len(saved), err)
}
