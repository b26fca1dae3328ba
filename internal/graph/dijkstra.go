package graph

import "math"

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

type pqItem struct {
	node int
	dist float64
}

// pq is a binary min-heap on dist, sifted directly on the slice.
// container/heap would box every pqItem through `any` — one heap
// allocation per push and per pop. The sift loops mirror container/heap's
// up/down comparisons exactly, so items with equal dist pop in the
// identical order and the parent trees and MSTs built from them are
// unchanged.
type pq []pqItem

// push appends it and sifts it up.
func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// pop removes and returns the minimum item.
func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*q = h[:n]
	return it
}

// Dijkstra computes single-source shortest paths from src. It returns the
// distance to every node (Inf when unreachable) and the parent of every
// node on its shortest path (-1 for src and unreachable nodes).
func Dijkstra(g *Graph, src int) (dist []float64, parent []int) {
	n := g.N()
	dist = make([]float64, n)
	parent = make([]int, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	if src < 0 || src >= n {
		return dist, parent
	}
	dist[src] = 0
	q := pq{{node: src}}
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for _, a := range g.Neighbors(it.node) {
			if nd := it.dist + a.W; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = it.node
				q.push(pqItem{node: a.To, dist: nd})
			}
		}
	}
	return dist, parent
}

// PathTo reconstructs the shortest path src→dst from a Dijkstra parent
// array. It returns nil when dst is unreachable.
func PathTo(parent []int, src, dst int) []int {
	if dst < 0 || dst >= len(parent) {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	if parent[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
