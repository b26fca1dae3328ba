package graph

import "math"

// maxRingSlots bounds the bucket ring of CSR.SSSP. The bucket width Δ
// starts at the smallest positive link weight and is raised only when
// the heaviest link would otherwise span more buckets than the ring
// holds.
const maxRingSlots = 4096

// minDelta keeps 1/Δ finite when every positive weight is subnormal.
const minDelta = 0x1p-1000

// CSR is a frozen compressed-sparse-row copy of a Graph for repeated
// single-source shortest-path runs: node u's arcs are
// arcs[off[u]:off[u+1]], in adjacency order. It never changes after
// NewCSR, so concurrent SSSP calls may share it.
type CSR struct {
	off  []int32
	arcs []csrArc
	inv  float64 // 1/Δ, Δ the bucket width
	// mask is the ring size minus one; the ring size is a power of two
	// larger than the number of buckets one arc can span.
	mask int
}

// csrArc keeps an arc's weight and head side by side, so a relaxation
// reads one 16-byte record.
type csrArc struct {
	w  float64
	to int32
}

// NewCSR freezes g. Arcs of weight +Inf are left out: a path through
// one costs +Inf, which never improves a distance. It panics when g has
// more than MaxInt32 arcs.
func NewCSR(g *Graph) *CSR {
	n := g.N()
	if 2*g.M() > math.MaxInt32 {
		panic("graph: too many arcs for a CSR")
	}
	c := &CSR{off: make([]int32, n+1), arcs: make([]csrArc, 0, 2*g.M())}
	minW, maxW := math.Inf(1), 0.0
	for u := 0; u < n; u++ {
		for _, a := range g.adj[u] {
			if math.IsInf(a.W, 1) {
				continue
			}
			c.arcs = append(c.arcs, csrArc{w: a.W, to: int32(a.To)})
			if a.W > 0 && a.W < minW {
				minW = a.W
			}
			maxW = max(maxW, a.W)
		}
		c.off[u+1] = int32(len(c.arcs))
	}
	delta := 1.0 // every weight is 0 (or there are none): one bucket
	if maxW > 0 {
		delta = max(minW, maxW/(maxRingSlots-4), minDelta)
	}
	c.inv = 1 / delta
	// An arc spans at most ⌈w/Δ⌉+1 buckets; keep two more slots of slack
	// for rounding in the bucket index.
	span := int(maxW*c.inv) + 3
	slots := 1
	for slots < span {
		slots <<= 1
	}
	c.mask = slots - 1
	return c
}

// ssspEntry is one (tentative distance, node) pair waiting in a bucket.
type ssspEntry struct {
	d float64
	v int32
}

// SSSPScratch holds the working arrays of CSR.SSSP so repeated runs
// reuse the distance slice and the bucket ring. One scratch serves one
// goroutine at a time.
type SSSPScratch struct {
	dist []float64
	ring [][]ssspEntry
}

// SSSP computes single-source shortest-path distances from src into s
// and returns the distance slice (Inf when unreachable, all Inf when src
// is out of range). The slice is owned by s and valid until its next use.
//
// The kernel is a bucketed label-correcting sweep: tentative (distance,
// node) entries wait in a cyclic ring of buckets of width Δ, the sweep
// takes buckets in increasing order, skips stale entries, and relaxes
// the arcs of every current one; an arc landing in the bucket being
// swept is taken in the same pass. When Δ is no larger than any link
// weight, no arc lands in the current bucket, so each node is final
// when the sweep reaches it and no heap is needed.
//
// The result is bit-identical to Dijkstra's, whatever Δ and the ring
// size are: the sweep stops only when every arc (u,v) has
// dist[v] <= dist[u]+w in float64, and every label is the left-to-right
// float64 sum along some path. With non-negative weights and monotone
// rounding, the only labelling with both properties is the minimum over
// paths of those sums, which is also what Dijkstra returns. Δ and the
// ring size change only how often a node is relaxed.
func (c *CSR) SSSP(s *SSSPScratch, src int) []float64 {
	n := len(c.off) - 1
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
	}
	dist := s.dist[:n]
	for i := range dist {
		dist[i] = Inf
	}
	if src < 0 || src >= n {
		return dist
	}
	if len(s.ring) != c.mask+1 {
		s.ring = make([][]ssspEntry, c.mask+1)
	}
	ring, off, arcs, inv, mask := s.ring, c.off, c.arcs, c.inv, c.mask
	dist[src] = 0
	ring[0] = append(ring[0][:0], ssspEntry{v: int32(src)})
	pending := 1
	for cur := 0; pending > 0; cur++ {
		slot := cur & mask
		bucket := ring[slot]
		for i := 0; i < len(bucket); i++ {
			e := bucket[i]
			if e.d > dist[e.v] {
				continue // stale: the node was reached more cheaply since
			}
			for _, a := range arcs[off[e.v]:off[e.v+1]] {
				if nd := e.d + a.w; nd < dist[a.to] {
					dist[a.to] = nd
					b := int(nd*inv) & mask
					ring[b] = append(ring[b], ssspEntry{d: nd, v: a.to})
					pending++
					if b == slot {
						bucket = ring[slot] // the bucket being swept grew
					}
				}
			}
		}
		pending -= len(bucket)
		ring[slot] = bucket[:0]
	}
	return dist
}
