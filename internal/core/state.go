package core

import (
	"cmp"
	"slices"

	"ace/internal/graph"
	"ace/internal/obs/tracer"
	"ace/internal/overlay"
)

// PeerState is the knowledge one peer accumulates in Phases 1–2: its
// h-closure, the multicast tree over it, and the flooding/non-flooding
// split of its direct neighbors. It is rebuilt from fresh cost tables
// whenever the subgraph it depends on changes, modelling the periodic
// exchange (the incremental engine in optimizer.go keeps states of
// untouched peers cached across rounds).
//
// Phase 1 gives the peer the cost between ANY pair of peers in its
// closure ("a peer can obtain the cost between any pair of its logical
// neighbors"): delay probes are IP-level pings that need no overlay
// connection, so the tree is the MST of the COMPLETE cost graph on the
// closure, built with dense Prim — the O(m²) construction the paper
// cites. Tree links that are not overlay connections are legitimate
// forwarding connections (Figure 3(b)): a peer can always send a query
// to an IP it learned from a cost table.
//
// The state is backed by two flat slabs (one []PeerID, one []int32)
// sliced into the closure, the CSR tree adjacency, the neighbor split,
// and the lookup metadata, so a rebuild performs O(1) heap allocations
// regardless of closure size. Tree and depth lookups go through the
// accessor methods, which binary-search an id-sorted position index.
type PeerState struct {
	// Closure lists the peers within h overlay hops, BFS order, self
	// first.
	Closure []overlay.PeerID
	// NonFlooding holds the direct neighbors not adjacent to the peer on
	// its tree, sorted — the Phase-3 replacement targets.
	NonFlooding []overlay.PeerID
	// KnownPairs counts the pairwise costs this peer holds — the size
	// of its cost-table knowledge, used for overhead accounting.
	KnownPairs int

	// flooding holds the direct neighbors adjacent to the peer on its
	// tree, sorted; queries go only to these (plus any non-neighbor tree
	// links, which the tree adjacency already lists).
	flooding []overlay.PeerID
	// depth[i] is the overlay hop distance of Closure[i] from the peer.
	depth []int32
	// treeOff/treeAdj are the CSR adjacency of the multicast tree:
	// Closure[i]'s tree neighbors are treeAdj[treeOff[i]:treeOff[i+1]],
	// sorted ascending.
	treeOff []int32
	treeAdj []overlay.PeerID
	// treeAdjPos mirrors treeAdj with closure positions instead of ids,
	// so tree traversals (launch pruning) run entirely in position space
	// without any id lookups.
	treeAdjPos []int32
	// parentPos[i] is the closure position of Closure[i]'s parent on the
	// tree rooted at the owner (position 0; -1 for the root itself), so
	// pruning walks target→root paths directly.
	parentPos []int32
	// treeCost mirrors treeAdj with the physical delay of each directed
	// tree edge, read from the sending side's distance vector at build
	// time — exactly the value the flood accounting would fetch per send.
	// nil in the sparse ablation, where build-time and query-time cost
	// resolutions may disagree in the last float bit.
	treeCost []float32
	// byID lists closure positions ordered by peer id, for O(log s)
	// id → position lookups.
	byID []int32

	// contrib is the peer's per-cycle exchange-cost contribution (probe
	// + table traffic; see exchangeCost), priced during the build while
	// the distance vectors are already in hand. commitStates copies it
	// into the optimizer's dense contrib cache.
	contrib float64

	// full is the whole-tree adjacency view handed to unpruned launches;
	// caching it here gives every launch one stable header pointer.
	full TreeAdj
}

// pos returns u's closure position, or -1 when u is not in the closure.
func (st *PeerState) pos(u overlay.PeerID) int {
	lo, hi := 0, len(st.byID)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if st.Closure[st.byID[mid]] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(st.byID) && st.Closure[st.byID[lo]] == u {
		return int(st.byID[lo])
	}
	return -1
}

// DepthOf returns u's overlay hop distance from the peer and whether u
// is in the closure at all.
func (st *PeerState) DepthOf(u overlay.PeerID) (int, bool) {
	i := st.pos(u)
	if i < 0 {
		return 0, false
	}
	return int(st.depth[i]), true
}

// TreeNeighbors returns u's neighbors on the peer's multicast tree,
// sorted ascending, or nil when u is not in the closure. The slice is a
// view into the state and must not be modified.
func (st *PeerState) TreeNeighbors(u overlay.PeerID) []overlay.PeerID {
	i := st.pos(u)
	if i < 0 {
		return nil
	}
	return st.treeAdj[st.treeOff[i]:st.treeOff[i+1]]
}

// FullTree returns the peer's whole multicast tree as a TreeAdj view
// over the state's CSR slabs — the adjacency an unpruned launch (the
// query source) carries. No copying happens; the view shares the
// state's backing arrays and stays valid as long as the state does.
func (st *PeerState) FullTree() *TreeAdj { return &st.full }

// FloodingView returns the direct neighbors adjacent to the peer on its
// tree, sorted ascending. The slice is a view into the state and must
// not be modified.
func (st *PeerState) FloodingView() []overlay.PeerID { return st.flooding }

// IsFlooding reports whether direct neighbor q is a flooding neighbor.
func (st *PeerState) IsFlooding(q overlay.PeerID) bool {
	_, ok := slices.BinarySearch(st.flooding, q)
	return ok
}

// buildScratch is one worker's reusable arena for buildState: the
// epoch-marked visited/position arrays are sized to the whole peer
// population, everything else to the largest closure seen. All buffers
// are fully overwritten per build, so states never depend on what a
// previous build left behind.
type buildScratch struct {
	epoch uint32
	mark  []uint32 // mark[p] == epoch ⇒ p visited in this build
	posOf []int32  // closure position of p; valid only when marked

	// Causal-trace sink for this worker, refreshed per round by the
	// engine (nil while tracing is off). Never feeds back into builds.
	trace      *tracer.Ring
	traceRound int32

	queue []overlay.PeerID // BFS order, reused as the closure source
	depth []int32          // BFS depths, parallel to queue

	attach []int32
	keys   []int32 // canonical Prim keys: peer ids by closure position
	vecs   [][]float32
	prim   graph.PrimDenseScratch
	cur    []int32 // CSR fill cursors

	// Repair-path buffers and this worker's repair outcome tally. repIn
	// and repOldPos describe the last repair's survivors (see
	// repairTree); they stay valid through the state assembly that
	// follows.
	uf        graph.UnionFind
	repIn     []bool
	repOldPos []int32
	repSide   []bool       // reconnect scan: position is in the merging component
	repOff    []int32      // candidate-tree CSR offsets (insertion repairs)
	repAdj    []int32      // candidate-tree CSR adjacency
	repAdjK   []packedEdge // canonical key per CSR entry
	repBest   []packedEdge // Prim frontier keys
	repPar    []int32      // Prim parents: -1 unseen, -2 in tree
	repIns    []int32      // inserted positions
	repStarK  []packedEdge // star keys, one row per inserted member
	repRem    []int32      // Prim frontier: positions outside the tree
	tally     repairTally

	// Sparse-ablation buffers (edges doubles as the repair edge list —
	// the sparse ablation and the repair path are mutually exclusive).
	nodes []int
	edges []graph.Edge

	// Slab free lists: backing arrays of replaced states, reclaimed by
	// the shard worker once the replacing build completes (recycling
	// rounds only — see repairCtx.recycle). Each build pops before the
	// next one pushes, so the pools idle at a couple of entries; they
	// are a malloc/GC bypass, not a cache.
	poolIDs  [][]overlay.PeerID
	poolMeta [][]int32
	poolCost [][]float32
}

// popSlab returns a slab of length n, reusing the pool's top entry when
// it is large enough and discarding it otherwise. Fresh slabs round
// their capacity to a multiple of 16 so recycled ones fit the slightly
// different sizes of subsequent builds. Pooled memory is returned
// as-is: callers fully overwrite every region they read.
func popSlab[T overlay.PeerID | int32 | float32](pool *[][]T, n int) []T {
	if k := len(*pool); k > 0 {
		s := (*pool)[k-1]
		(*pool)[k-1] = nil
		*pool = (*pool)[:k-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n, (n+15)&^15)
}

// recycleSlabs reclaims a dead state's backing arrays. The first carve
// of each slab (Closure, depth) keeps the slab's full capacity exactly
// so it can be recovered here; treeCost is a whole slab already.
func (sc *buildScratch) recycleSlabs(old *PeerState) {
	if c := old.Closure; cap(c) > 0 {
		sc.poolIDs = append(sc.poolIDs, c[:cap(c)])
	}
	if d := old.depth; cap(d) > 0 {
		sc.poolMeta = append(sc.poolMeta, d[:cap(d)])
	}
	if t := old.treeCost; cap(t) > 0 {
		sc.poolCost = append(sc.poolCost, t[:cap(t)])
	}
}

// visited readies the population-sized arrays for a fresh build and
// returns them.
func (sc *buildScratch) visited(n int) (mark []uint32, posOf []int32) {
	if len(sc.mark) < n {
		sc.mark = make([]uint32, n)
		sc.posOf = make([]int32, n)
		sc.epoch = 0
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale marks could alias the new epoch
		clear(sc.mark)
		sc.epoch = 1
	}
	return sc.mark, sc.posOf
}

// The overhead calibration (EXPERIMENTS.md): the traffic cost of each
// protocol message per unit of physical delay, relative to a query
// message costing 1 per delay unit. The constants are typed: untyped
// ones would fold probeCost + exchangeHeaderCost exactly at compile time
// and move the last bit of the exchange-cost factor below.
const (
	// probeCost prices one delay-probe round trip.
	probeCost float64 = 0.4
	// exchangeHeaderCost prices the fixed part of one cost-table
	// exchange message; one flows on every logical link each cycle
	// regardless of depth.
	exchangeHeaderCost float64 = 0.8
	// tableEntryCost prices each cost-table entry an exchange message
	// carries. Entries grow with the closure, so this term makes the
	// overhead climb with h (Figure 12) while the header term keeps
	// shallow depths from being free.
	tableEntryCost float64 = 4e-6
)

// buildState runs Phases 1–2 for peer p against the current network,
// assembling the flat PeerState through sc. sparse selects the ablation
// reading (trees over the overlay subgraph only). excluded, when
// non-nil, marks peers whose cost entries aged past staleTTL — they are
// invisible to the closure BFS and the neighbor split, so the tree
// degrades by shrinking around them instead of spanning entries nobody
// refreshed (the peer itself is never excluded from its own view). It
// only reads the network (via zero-copy neighbor views), so rebuild
// workers may run it concurrently — each with its own scratch — while
// no mutation is in flight.
//
// rc, when non-nil, enables the incremental repair path: if the peer has
// a previous state, the canonical tree is repaired from it instead of
// rebuilt with dense Prim (bit-identical output — the canonical MST is
// unique), falling back to dense construction past the repair delta
// threshold. Outcomes accumulate in sc.tally.
func buildState(sc *buildScratch, net *overlay.Network, p overlay.PeerID, cfg *Config, excluded []bool, rc *repairCtx) *PeerState {
	h, sparse := cfg.Depth, cfg.SparseKnowledge
	mark, posOf := sc.visited(net.N())

	// One BFS yields the closure, the positions, and the depths: every
	// prefix of a shortest ≤h-hop path is itself shortest, so bounding
	// the expansion at h hops assigns exactly the depths a BFS restricted
	// to the closure subgraph would.
	order := append(sc.queue[:0], p)
	depth := append(sc.depth[:0], 0)
	mark[p] = sc.epoch
	posOf[p] = 0
	for head := 0; head < len(order); head++ {
		d := depth[head]
		if int(d) == h {
			break // BFS order is depth-sorted: nothing left to expand
		}
		for _, v := range net.NeighborsView(order[head]) {
			if mark[v] != sc.epoch {
				if excluded != nil && excluded[v] {
					continue
				}
				mark[v] = sc.epoch
				posOf[v] = int32(len(order))
				order = append(order, v)
				depth = append(depth, d+1)
			}
		}
	}
	sc.queue, sc.depth = order, depth
	s := len(order)

	// Identity fast path: a dirty peer whose closure BFS came out
	// IDENTICAL — same member sequence, same depths — gets its previous
	// state back wholesale. The common producer is a peer marked dirty
	// only because a closure member rewired elsewhere: its own adjacency
	// list never moved, so its BFS replays exactly. Sequence equality
	// (not just set equality) is what makes the reuse bit-identical to a
	// rebuild, representation included: the cost matrix is a pure
	// function of the member set (attachments never change), so the
	// canonical tree and cost mirror match, and the depth-1 segment of an
	// equal sequence IS the raw neighbor list in list order, pinning the
	// neighbor split and the exchange contribution too. Gated on
	// excluded == nil because that neighbor-list argument (and the
	// contribution's pricing of edges to excluded neighbors) only holds
	// when the BFS filters nobody.
	if !sparse && rc != nil && excluded == nil {
		if old := rc.states[p]; old != nil && len(old.Closure) == s {
			same := true
			for i, id := range old.Closure {
				if order[i] != id || depth[i] != old.depth[i] {
					same = false
					break
				}
			}
			if same {
				sc.tally.hits++
				traceInstant(sc.trace, sc.traceRound, tracer.KindBuildReuse, int32(p), 0, 0)
				return old
			}
		}
	}

	// Tree edges as closure-position pairs, from dense Prim over the
	// complete cost graph (parent form) or sparse Prim over the overlay
	// subgraph (edge list, ablation).
	var parent []int           // dense: parent[i] for i ≥ 1
	var treeEdges []graph.Edge // sparse or repaired: edges with U/V already positions
	var oldRepaired *PeerState // the prior state the tree was repaired from
	knownPairs := s * (s - 1) / 2
	if sparse {
		edges := sc.edges[:0]
		for i := 0; i < s; i++ {
			u := order[i]
			for _, v := range net.NeighborsView(u) {
				if v > u && mark[v] == sc.epoch {
					edges = append(edges, graph.Edge{U: int(u), V: int(v), W: net.Cost(u, v)})
				}
			}
		}
		sc.edges = edges
		knownPairs = len(edges)
		nodes := sc.nodes[:0]
		for _, u := range order {
			nodes = append(nodes, int(u))
		}
		sc.nodes = nodes
		tree, _ := graph.PrimMST(nodes, edges, int(p))
		for i := range tree {
			tree[i].U = int(posOf[tree[i].U])
			tree[i].V = int(posOf[tree[i].V])
		}
		treeEdges = tree
	} else {
		// Canonical dense Prim over the complete cost graph on the
		// closure; position 0 is p itself, so the tree is rooted at p.
		// Distance vectors are fetched once per member and indexed
		// directly — the O(s²) inner loop must not pay the oracle's lock
		// per pair. The cost matrix is made symmetric by always reading
		// the lower-id endpoint's vector (the two directions can differ
		// in the last float bit), and cost ties break on peer-id pairs:
		// together these make the tree the unique canonical MST of the
		// member set, which is what lets the repair path below splice
		// edges instead of rebuilding and still match bit-for-bit.
		oracle := net.Oracle()
		if cap(sc.attach) < s {
			// Grow to the next power of two: closure sizes fluctuate
			// round to round, and exact sizing would reallocate all
			// three arrays every few rebuilds.
			n := nextPow2(s)
			sc.attach = make([]int32, n)
			sc.keys = make([]int32, n)
			sc.vecs = make([][]float32, n)
		}
		attach, keys, vecs := sc.attach[:s], sc.keys[:s], sc.vecs[:s]
		for i, u := range order {
			a := net.Attachment(u)
			attach[i] = int32(a)
			keys[i] = int32(u)
			vecs[i] = oracle.Vector(a)
		}
		if rc != nil {
			if old := rc.states[p]; old != nil {
				var repaired bool
				if treeEdges, repaired = repairTree(sc, old, order, posOf, attach, vecs); repaired {
					oldRepaired = old
				}
			}
			if oldRepaired != nil {
				sc.tally.hits++
				traceInstant(sc.trace, sc.traceRound, tracer.KindBuildRepair, int32(p), 0, 0)
			} else {
				sc.tally.fallbacks++
				traceInstant(sc.trace, sc.traceRound, tracer.KindBuildDense, int32(p), 0, 0)
			}
		}
		if oldRepaired == nil {
			parent = graph.PrimDenseCanonVecs(&sc.prim, s, keys, attach, vecs)
		}
	}

	// Slab allocation: everything the state owns comes from two backing
	// arrays, so a steady-state rebuild costs O(1) allocations.
	treeLen := 2 * (s - 1)
	if parent == nil {
		treeLen = 2 * len(treeEdges) // edge-list source: sparse or repaired
	}
	deg := len(net.NeighborsView(p))
	ids := popSlab(&sc.poolIDs, s+treeLen+deg)
	meta := popSlab(&sc.poolMeta, s+(s+1)+s+treeLen+s)

	st := &PeerState{
		Closure:    ids[:s], // unclipped: cap spans the slab, for recycleSlabs
		KnownPairs: knownPairs,
		depth:      meta[:s], // unclipped, as Closure

		treeOff:    meta[s : 2*s+1 : 2*s+1],
		treeAdj:    ids[s : s+treeLen : s+treeLen],
		byID:       meta[2*s+1 : 3*s+1 : 3*s+1],
		treeAdjPos: meta[3*s+1 : 3*s+1+treeLen : 3*s+1+treeLen],
		parentPos:  meta[3*s+1+treeLen:],
	}
	copy(st.Closure, order)
	copy(st.depth, depth)
	for i := range st.byID {
		st.byID[i] = int32(i)
	}
	closure := st.Closure
	if s <= 48 {
		// Typical closures are a dozen-odd members: a keyed insertion
		// sort beats the generic comparator sort's dispatch overhead.
		for x := 1; x < s; x++ {
			v := st.byID[x]
			id := closure[v]
			y := x - 1
			for y >= 0 && closure[st.byID[y]] > id {
				st.byID[y+1] = st.byID[y]
				y--
			}
			st.byID[y+1] = v
		}
	} else {
		slices.SortFunc(st.byID, func(a, b int32) int {
			return cmp.Compare(closure[a], closure[b])
		})
	}

	// CSR tree adjacency: count per-position degrees into treeOff[1:],
	// prefix-sum, fill through cursors, sort each bucket ascending. The
	// offsets are accumulated in place, so clear them first — the slab
	// may be recycled, not zero-fresh.
	off := st.treeOff
	for i := range off {
		off[i] = 0
	}
	if parent == nil {
		for _, e := range treeEdges {
			off[e.U+1]++
			off[e.V+1]++
		}
	} else {
		for i := 1; i < s; i++ {
			off[parent[i]+1]++
			off[i+1]++
		}
	}
	for i := 0; i < s; i++ {
		off[i+1] += off[i]
	}
	cur := append(sc.cur[:0], off[:s]...)
	sc.cur = cur
	if parent == nil {
		for _, e := range treeEdges {
			st.treeAdj[cur[e.U]] = closure[e.V]
			cur[e.U]++
			st.treeAdj[cur[e.V]] = closure[e.U]
			cur[e.V]++
		}
	} else {
		for i := 1; i < s; i++ {
			pa := parent[i]
			st.treeAdj[cur[pa]] = closure[i]
			cur[pa]++
			st.treeAdj[cur[i]] = closure[pa]
			cur[i]++
		}
	}
	for i := 0; i < s; i++ {
		// Buckets are tree degrees — almost always 1-3 entries; inline
		// insertion sort avoids the generic sort's dispatch per bucket.
		b := st.treeAdj[off[i]:off[i+1]]
		for x := 1; x < len(b); x++ {
			v := b[x]
			y := x - 1
			for y >= 0 && b[y] > v {
				b[y+1] = b[y]
				y--
			}
			b[y+1] = v
		}
	}
	// The position mirror is filled after the sort through the BFS
	// scratch, which still maps every closure member's id to its
	// position — no per-entry search needed.
	for i, v := range st.treeAdj {
		st.treeAdjPos[i] = posOf[v]
	}
	if !sparse {
		// Edge-cost mirror, read from the vectors the Prim pass already
		// fetched: entry x of bucket i is the delay Closure[i] pays to
		// reach treeAdj[x] — the sender-side resolution query accounting
		// uses, memoized so floods never touch the vectors per send.
		st.treeCost = popSlab(&sc.poolCost, treeLen)
		attach, vecs := sc.attach[:s], sc.vecs[:s]
		if oldRepaired != nil {
			// Repaired tree: most edges survived from the previous state,
			// whose mirror holds the exact same float32 for the same
			// directed pair — merge-walk the sorted old and new buckets
			// and copy matches, leaving only edges touching inserted
			// members or displaced by swaps to resolve fresh.
			// Every repaired-tree edge carries its exact canonical weight
			// on the edge list (survivor weights came from the old mirror,
			// reconnect and star weights from the evaluations that accepted
			// them), so one pass over the list fills the canonical-direction
			// half of the mirror with no vector traffic: orient each edge
			// toward its lower-id endpoint and drop the weight into that
			// bucket's slot.
			old := oldRepaired
			for _, e := range treeEdges {
				u, v := e.U, e.V
				if closure[u] > closure[v] {
					u, v = v, u
				}
				id := closure[v]
				for x := off[u]; ; x++ {
					if st.treeAdj[x] == id {
						st.treeCost[x] = float32(e.W)
						break
					}
				}
			}
			// The other direction is a genuinely different reading: copy it
			// from the old mirror where the directed pair survived (a
			// merge-walk over the sorted buckets), probe the vector only
			// for pairs the repair created.
			for i := 0; i < s; i++ {
				lo, hi := off[i], off[i+1]
				var ox, oEnd int32
				if sc.repIn[i] {
					oi := int(sc.repOldPos[i])
					ox, oEnd = old.treeOff[oi], old.treeOff[oi+1]
				}
				ci := closure[i]
				for x := lo; x < hi; x++ {
					id := st.treeAdj[x]
					if ci < id {
						continue // canonical slot, filled from the edge list
					}
					if sc.repIn[i] {
						for ox < oEnd && old.treeAdj[ox] < id {
							ox++
						}
						if ox < oEnd && old.treeAdj[ox] == id {
							st.treeCost[x] = old.treeCost[ox]
							ox++
							continue
						}
					}
					st.treeCost[x] = vecs[i][attach[st.treeAdjPos[x]]]
				}
			}
		} else {
			// Dense Prim produced this tree, and Best() still holds the
			// exact float64 each edge was accepted under — the canonical
			// (lower-id sender) direction of the mirror, so those entries
			// convert back to float32 instead of re-probing a vector. The
			// mirror's other direction is a genuinely different reading
			// and always pays the probe.
			best := sc.prim.Best()
			for i := 0; i < s; i++ {
				ci := closure[i]
				row := vecs[i]
				for x := off[i]; x < off[i+1]; x++ {
					j := st.treeAdjPos[x]
					if ci < st.treeAdj[x] {
						c := int(j)
						if parent[i] == c {
							c = i
						}
						st.treeCost[x] = float32(best[c])
					} else {
						st.treeCost[x] = row[attach[j]]
					}
				}
			}
		}
	}
	// parentPos: dense Prim roots the tree at position 0 already, so its
	// parent array is the orientation verbatim. Edge-list trees (sparse
	// or pure-removal repairs) orient with a BFS over the finished CSR;
	// the cursor slice doubles as the queue — it is dead after the fill.
	pp := st.parentPos
	if parent != nil {
		for i := 0; i < s; i++ {
			pp[i] = int32(parent[i])
		}
	} else {
		pp[0] = -1
		bfs := append(cur[:0], 0)
		for head := 0; head < len(bfs); head++ {
			n := bfs[head]
			for _, c := range st.treeAdjPos[off[n]:off[n+1]] {
				if c != pp[n] {
					pp[c] = n
					bfs = append(bfs, c)
				}
			}
		}
		sc.cur = bfs
	}
	st.full = TreeAdj{nodes: st.Closure, off: st.treeOff, adj: st.treeAdj, adjPos: st.treeAdjPos, cost: st.treeCost, byID: st.byID}

	// Neighbor split: p sits at position 0, so its tree neighbors are
	// the first CSR bucket (sorted). Both halves fill the tail of the id
	// slab, each in ascending neighbor order.
	nbrs := net.NeighborsView(p)
	treeP := st.treeAdj[off[0]:off[1]]
	split := ids[s+treeLen:]
	k := 0
	for _, q := range nbrs {
		if onTree(treeP, q) {
			split[k] = q
			k++
		}
	}
	st.flooding = split[:k:k]
	nf := split[k:k]
	for _, q := range nbrs {
		if excluded != nil && excluded[q] {
			continue // stale past TTL: neither flooded to nor optimized over
		}
		if !onTree(treeP, q) {
			nf = append(nf, q)
		}
	}
	st.NonFlooding = nf

	// Price the peer's share of a cost-table exchange cycle: it re-probes
	// its direct neighbors and ships its accumulated pairwise knowledge
	// (entries scale with the closure) to each of them, paying transport
	// proportional to the link delay. On the dense path every link delay
	// comes from p's own vector, already fetched as vecs[0] — identical
	// bits to a CostView read, without the per-peer oracle round trip.
	factor := probeCost + exchangeHeaderCost + tableEntryCost*float64(knownPairs)
	total := 0.0
	if sparse {
		cv := net.CostsFrom(p)
		for _, q := range nbrs {
			total += cv.To(q) * factor
		}
	} else {
		vec0, attach := sc.vecs[0], sc.attach[:s]
		for _, q := range nbrs {
			var a int32
			if mark[q] == sc.epoch {
				a = attach[posOf[q]]
			} else {
				a = int32(net.Attachment(q)) // excluded neighbor: not in the closure
			}
			total += float64(vec0[a]) * factor
		}
	}
	st.contrib = total
	return st
}

func onTree(sorted []overlay.PeerID, q overlay.PeerID) bool {
	// Neighbor and member lists are usually a few dozen entries; a linear
	// scan with early exit beats the branch-heavy binary search there.
	if len(sorted) <= 32 {
		for _, v := range sorted {
			if v >= q {
				return v == q
			}
		}
		return false
	}
	_, ok := slices.BinarySearch(sorted, q)
	return ok
}
