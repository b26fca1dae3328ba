package core

import (
	"math"
	"math/bits"

	"ace/internal/graph"
	"ace/internal/overlay"
)

// Repair admission bounds. An insertion costs one star row — ~s cost
// evaluations, the same per-vertex price the dense Prim pays — so
// insertions stay profitable almost up to a full-closure delta; the
// bound below keeps a margin for the repair path's fixed overhead. A
// removal is the expensive unit: each lost member can split the
// surviving forest, and every reconnect merge pays an O(s²) bipartite
// scan with fresh cost evaluations, so removals are admitted only while
// a dense rebuild would clearly cost more.
const (
	repairInsScale = 2 // fallback when 2·inserted > s
	repairRemScale = 2 // fallback when 2·removed  > s
)

// repairTally accumulates one worker's repair outcomes for a rebuild
// pass. Workers own private tallies (one per buildScratch); the fan-outs
// fold them into the optimizer serially, so totals are deterministic.
type repairTally struct {
	hits      int // states repaired without a dense Prim
	fallbacks int // repair attempted (or no prior state) but dense Prim ran
	attachOps int // members spliced into a tree via canonical Kruskal
	swapOps   int // tree edges displaced: cut-property swaps + reconnects
}

func (t *repairTally) add(o repairTally) {
	t.hits += o.hits
	t.fallbacks += o.fallbacks
	t.attachOps += o.attachOps
	t.swapOps += o.swapOps
}

// fill copies the tally into a StepReport's repair diagnostics.
func (t repairTally) fill(r *StepReport) {
	r.RepairHits = t.hits
	r.RepairFallbacks = t.fallbacks
	r.AttachOps = t.attachOps
	r.SwapOps = t.swapOps
}

// repairCtx enables the incremental tree-repair path for a rebuild pass:
// states holds the previous round's PeerStates, read-only for the whole
// fan-out. A nil ctx (full rebuilds, sparse ablation, or a round with
// excluded-peer staleness flips) forces dense construction.
type repairCtx struct {
	states []*PeerState
	// recycle permits the shard worker to reclaim a replaced state's
	// backing slabs as soon as its replacement is built. Only safe when
	// nothing reads replaced states after their build — i.e. when the
	// reverse index is idle (see Optimizer.revIdle); commit-time index
	// maintenance otherwise walks the old closures.
	recycle bool
}

// nextPow2 rounds n up to a power of two, for scratch buffers whose
// useful length fluctuates with closure size.
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// packedEdge is a candidate edge folded into two words whose
// lexicographic (hi, lo) order IS the canonical edge order: hi holds the
// IEEE bits of the float32 cost over the smaller endpoint id, lo the
// larger id over the closure positions. Costs are non-negative and every
// weight on the repair path is an exact float32 (vector readings, or
// treeCost entries that started as one), so the bit pattern orders
// exactly like the float — which turns the canonical comparator into two
// integer compares.
type packedEdge struct {
	hi uint64 // float32bits(W)<<32 | min peer id
	lo uint64 // max peer id <<32 | position U <<16 | position V
}

// packEdge folds the edge (u, v) — closure positions, weight w — into
// its canonical sort key. Positions must fit 16 bits; closures are a few
// dozen members, the caller guards the bound.
func packEdge(order []overlay.PeerID, u, v int, w float32) packedEdge {
	a, b := uint32(order[u]), uint32(order[v])
	if a > b {
		a, b = b, a
	}
	return packedEdge{
		hi: uint64(math.Float32bits(w))<<32 | uint64(a),
		lo: uint64(b)<<32 | uint64(uint32(u)<<16|uint32(v)),
	}
}

// Canonical symmetric closure costs below are always read from the
// lower-id endpoint's distance vector. Distance vectors for the two
// directions of a peer pair can disagree in the last float bit
// (summation order), so the canonical matrix pins one direction per
// pair — the same convention buildState's dense Prim uses, which is
// what lets repaired weights and freshly evaluated weights compare
// bit-for-bit.

// repairTree reconstructs the canonical MST of the new closure (order,
// with sc.mark/sc.posOf still describing it) from the previous state's
// tree instead of running dense Prim, and reports whether it took the
// repair path. On success it returns a position-space edge list backed
// by sc.edges. The tree is exactly the canonical one: because the MST is
// unique under the canonical edge order and peer-pair costs never change
// (attachments are fixed at network construction), membership deltas
// alone classify the repair, and each repair op below provably lands on
// the canonical tree of the new member set:
//
//   - removals: a surviving tree edge is the canonical minimum across
//     some cut of the old members, hence across the same cut restricted
//     to survivors — so the surviving forest is a subforest of the
//     survivors' MST, and joining its components with canonical-minimum
//     cross edges (cut property) completes that MST exactly;
//   - insertions: MST(W ∪ S) ⊆ MST(W) ∪ incident(S) (cycle property),
//     so one canonical Kruskal over the current tree plus all edges
//     incident to the inserted members yields the canonical MST of the
//     full new set.
//
// Falls back (returns ok=false) when the previous tree is unusable or
// the membership delta exceeds the repair admission bounds — then the
// dense path runs, as a full rebuild would.
func repairTree(sc *buildScratch, old *PeerState, order []overlay.PeerID, posOf []int32, attach []int32, vecs [][]float32) ([]graph.Edge, bool) {
	if old.treeCost == nil {
		return nil, false // previous state lacks reusable edge weights
	}
	s := len(order)
	removed := 0
	for _, id := range old.Closure {
		if sc.mark[id] != sc.epoch {
			removed++
		}
	}
	inserted := s - (len(old.Closure) - removed)
	if repairInsScale*inserted > s || repairRemScale*removed > s {
		return nil, false
	}

	// Surviving old tree edges, re-addressed to new closure positions.
	// Each undirected edge is taken from its lower-id endpoint's CSR
	// bucket, whose treeCost entry is by construction the canonical
	// (lower-id direction) weight — bit-identical to what a fresh
	// evaluation of the canonical cost matrix would return.
	edges := sc.edges[:0]
	for i, idI := range old.Closure {
		if sc.mark[idI] != sc.epoch {
			continue
		}
		for x := old.treeOff[i]; x < old.treeOff[i+1]; x++ {
			j := old.treeAdjPos[x]
			if idJ := old.Closure[j]; idI < idJ && sc.mark[idJ] == sc.epoch {
				edges = append(edges, graph.Edge{U: int(posOf[idI]), V: int(posOf[idJ]), W: float64(old.treeCost[x])})
			}
		}
	}

	// in[pos] marks surviving positions; repOldPos maps them back to
	// their old closure position (so the treeCost fill can copy the old
	// mirror entries of surviving edges instead of re-reading vectors).
	// Both stay valid after repairTree returns — buildState's assembly
	// reads them.
	if cap(sc.repIn) < s {
		n := nextPow2(s)
		sc.repIn = make([]bool, n)
		sc.repOldPos = make([]int32, n)
		sc.repSide = make([]bool, n)
	}
	in, oldPos := sc.repIn[:s], sc.repOldPos[:s]
	for i := range in {
		in[i] = false
	}
	for i, id := range old.Closure {
		if sc.mark[id] == sc.epoch {
			in[posOf[id]] = true
			oldPos[posOf[id]] = int32(i)
		}
	}

	keys := sc.keys[:s]

	// Removal repair: reconnect the surviving forest. Componenthood is
	// tracked by union-find; each iteration merges the smallest surviving
	// component (ties by root position — the choice does not affect the
	// final edge set, only scan order) into the rest via the canonical-
	// minimum crossing edge, which the cut property puts in the MST.
	// With no removals the old tree is intact and connected; the whole
	// phase — union-find included — is skipped.
	comps := 1
	if removed > 0 {
		sc.uf.Reset(s)
		for _, e := range edges {
			sc.uf.Union(e.U, e.V)
		}
		comps = 0
		for v := 0; v < s; v++ {
			if in[v] && sc.uf.Find(v) == v {
				comps++
			}
		}
	}
	for comps > 1 {
		root, rootSize := -1, 0
		for v := 0; v < s; v++ {
			if in[v] && sc.uf.Find(v) == v {
				if sz := sc.uf.SizeOf(v); root < 0 || sz < rootSize {
					root, rootSize = v, sz
				}
			}
		}
		// One classification pass keeps union-find Finds off the O(s²)
		// bipartite scan below.
		inRoot := sc.repSide[:s]
		for v := 0; v < s; v++ {
			inRoot[v] = in[v] && sc.uf.Find(v) == root
		}
		best := graph.Edge{U: -1}
		for u := 0; u < s; u++ {
			if !inRoot[u] {
				continue
			}
			ou, au, rowU := order[u], attach[u], vecs[u]
			for w := 0; w < s; w++ {
				if !in[w] || inRoot[w] {
					continue
				}
				var c float64
				if ou < order[w] {
					c = float64(rowU[attach[w]])
				} else {
					c = float64(vecs[w][au])
				}
				if best.U < 0 || graph.CanonEdgeLess(c, keys[u], keys[w], best.W, keys[best.U], keys[best.V]) {
					best = graph.Edge{U: u, V: w, W: c}
				}
			}
		}
		if best.U < 0 {
			return nil, false // survivors unreachable: should not happen
		}
		edges = append(edges, best)
		sc.uf.Union(best.U, best.V)
		sc.tally.swapOps++
		comps--
	}

	// Insertion repair: canonical Prim over the candidate graph made of
	// the survivors' tree plus every edge incident to an inserted member.
	// By the cycle property no other edge can enter the MST — an edge
	// between two survivors outside their MST closes a cycle there on
	// which it is the strict canonical maximum — so the candidate graph
	// contains the new canonical MST, and by uniqueness its MST IS the
	// canonical tree. The pass runs over the candidate ADJACENCY — tree
	// edges as CSR lists, inserted members as implicit complete stars —
	// with every frontier key prefolded into its packedEdge words, so
	// selection and relaxation are integer compares with no sort, no
	// union-find, and no comparator calls; the dominant cost is the
	// star-cost evaluations, which any exact method must pay. Star edges
	// accepted beyond one per inserted member each displace a surviving
	// tree edge — the cut-property swaps.
	if inserted > 0 {
		if s >= 1<<16 {
			return nil, false // positions must fit packedEdge's 16 bits
		}
		if cap(sc.repOff) < s+1 {
			n := nextPow2(s + 1)
			sc.repOff = make([]int32, n)
			sc.repAdj = make([]int32, 2*n)
			sc.repAdjK = make([]packedEdge, 2*n)
			sc.repBest = make([]packedEdge, n)
			sc.repPar = make([]int32, n)
			sc.repIns = make([]int32, n)
		}
		// CSR adjacency of the survivors' tree (both directions), with
		// each entry's canonical key precomputed once per undirected edge.
		off := sc.repOff[:s+1]
		for i := range off {
			off[i] = 0
		}
		for _, e := range edges {
			off[e.U+1]++
			off[e.V+1]++
		}
		for i := 0; i < s; i++ {
			off[i+1] += off[i]
		}
		adj, adjK := sc.repAdj[:2*(s-1)], sc.repAdjK[:2*(s-1)]
		for _, e := range edges {
			k := packEdge(order, e.U, e.V, float32(e.W))
			adj[off[e.U]], adjK[off[e.U]] = int32(e.V), k
			off[e.U]++
			adj[off[e.V]], adjK[off[e.V]] = int32(e.U), k
			off[e.V]++
		}
		for i := s; i > 0; i-- {
			off[i] = off[i-1]
		}
		off[0] = 0

		ins := sc.repIns[:0]
		best, par := sc.repBest[:s], sc.repPar[:s]
		unseen := packedEdge{hi: ^uint64(0), lo: ^uint64(0)}
		for v := 0; v < s; v++ {
			best[v] = unseen
			par[v] = -1
			if !in[v] {
				ins = append(ins, int32(v))
			}
		}
		// Star keys, one row per inserted member, priced v-major: a run
		// of s evaluations walks a single distance vector while it is
		// cache-hot — the same reason the dense Prim fetches rows up
		// front. The Prim pass below then relaxes from this table with
		// no vector traffic at all.
		if cap(sc.repStarK) < len(ins)*s {
			sc.repStarK = make([]packedEdge, nextPow2(len(ins)*s))
		}
		starK := sc.repStarK[:len(ins)*s]
		for vi, vv := range ins {
			v := int(vv)
			ov, av, rowV := order[v], attach[v], vecs[v]
			base := vi * s
			for x := 0; x < s; x++ {
				if x == v {
					continue
				}
				var c float32
				if ov < order[x] {
					c = rowV[attach[x]]
				} else {
					c = vecs[x][av]
				}
				starK[base+x] = packEdge(order, v, x, c)
			}
		}
		// Prim from position 0 (the peer itself — always a survivor).
		// inTree is encoded as par[v] == -2; kept edges reuse the edge
		// scratch, whose survivor prefix the CSR fill above has consumed.
		// The frontier is a compact swap-remove list: selection scans only
		// the vertices still outside the tree, and because every frontier
		// key is a distinct edge (distinct (cost, id-pair) triples), the
		// minimum is unique and the scan order cannot matter.
		if cap(sc.repRem) < s {
			sc.repRem = make([]int32, nextPow2(s))
		}
		rem := sc.repRem[:0]
		for v := 1; v < s; v++ {
			rem = append(rem, int32(v))
		}
		kept := edges[:0]
		starAccepted := 0
		u := 0
		for iter := 1; iter < s; iter++ {
			par[u] = -2
			// Relax u's tree neighbors, then the star edges between u and
			// the inserted members (a survivor sees every inserted member;
			// an inserted member sees everyone — it has no tree entries).
			for x := off[u]; x < off[u+1]; x++ {
				if v := int(adj[x]); par[v] != -2 {
					if k := adjK[x]; k.hi < best[v].hi || (k.hi == best[v].hi && k.lo < best[v].lo) {
						best[v], par[v] = k, int32(u)
					}
				}
			}
			if in[u] {
				for vi, vv := range ins {
					v := int(vv)
					if par[v] == -2 {
						continue
					}
					if k := starK[vi*s+u]; k.hi < best[v].hi || (k.hi == best[v].hi && k.lo < best[v].lo) {
						best[v], par[v] = k, int32(u)
					}
				}
			} else {
				base := 0
				for vi, vv := range ins {
					if int(vv) == u {
						base = vi * s
						break
					}
				}
				for v := 0; v < s; v++ {
					if v == u || par[v] == -2 {
						continue
					}
					if k := starK[base+v]; k.hi < best[v].hi || (k.hi == best[v].hi && k.lo < best[v].lo) {
						best[v], par[v] = k, int32(u)
					}
				}
			}
			bi, next := 0, int(rem[0])
			for i := 1; i < len(rem); i++ {
				if v := int(rem[i]); best[v].hi < best[next].hi || (best[v].hi == best[next].hi && best[v].lo < best[next].lo) {
					next, bi = v, i
				}
			}
			if par[next] == -1 {
				return nil, false // candidate graph disconnected: cannot happen
			}
			rem[bi] = rem[len(rem)-1]
			rem = rem[:len(rem)-1]
			u = next
			kept = append(kept, graph.Edge{U: u, V: int(par[u]), W: float64(math.Float32frombits(uint32(best[u].hi >> 32)))})
			if !in[u] || !in[par[u]] {
				starAccepted++
			}
		}
		sc.edges = kept
		sc.tally.attachOps += inserted
		sc.tally.swapOps += starAccepted - inserted
		return kept, true
	}

	if len(edges) != s-1 {
		return nil, false
	}
	sc.edges = edges
	return edges, true
}
