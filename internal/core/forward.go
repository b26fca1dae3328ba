package core

import (
	"slices"

	"ace/internal/overlay"
)

// TreeAdj is the adjacency of one multicast tree, as carried by the
// query messages serving it. Launched trees are pruned to the branches
// that reach peers earlier trees did not already cover, so the structure
// may describe a subtree of the owner's full tree.
//
// The adjacency is stored in CSR form — a member list, prefix offsets,
// and one concatenated, per-bucket-sorted neighbor array — built once at
// prune time, plus a position mirror of the neighbor array so traversals
// never translate ids back to positions. Messages share one *TreeAdj
// per launch instead of copying the header around, and the source's
// unpruned launch reuses the PeerState slabs directly without copying
// anything.
type TreeAdj struct {
	// nodes lists the member ids. When byID is nil the list is sorted
	// ascending; otherwise byID holds the positions ordered by id (the
	// PeerState view, whose members stay in BFS order).
	nodes []overlay.PeerID
	// off[i]:off[i+1] brackets nodes[i]'s neighbors within adj.
	off []int32
	// adj is the concatenated neighbor lists, each sorted ascending.
	adj []overlay.PeerID
	// adjPos mirrors adj with member positions, so walking the tree from
	// a known position needs no id lookups.
	adjPos []int32
	// cost, when non-nil, mirrors adj with the sender-side physical delay
	// of each directed edge, memoized at build time (see
	// PeerState.treeCost). nil when build-time values may not match
	// query-time resolution (the sparse ablation).
	cost []float32
	byID []int32
}

// Len reports the number of tree members.
func (t *TreeAdj) Len() int {
	if t == nil {
		return 0
	}
	return len(t.nodes)
}

// Members returns the member ids (view; do not modify). Order is
// unspecified.
func (t *TreeAdj) Members() []overlay.PeerID {
	if t == nil {
		return nil
	}
	return t.nodes
}

// pos returns u's position in nodes, or -1 when u is not a member.
func (t *TreeAdj) pos(u overlay.PeerID) int {
	if t.byID == nil {
		if i, ok := slices.BinarySearch(t.nodes, u); ok {
			return i
		}
		return -1
	}
	lo, hi := 0, len(t.byID)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.nodes[t.byID[mid]] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.byID) && t.nodes[t.byID[lo]] == u {
		return int(t.byID[lo])
	}
	return -1
}

// Contains reports whether u is a tree member.
func (t *TreeAdj) Contains(u overlay.PeerID) bool {
	return t != nil && len(t.nodes) > 0 && t.pos(u) >= 0
}

// Neighbors returns u's tree neighbors, sorted ascending, or nil when u
// is not a member. The slice is a view and must not be modified.
func (t *TreeAdj) Neighbors(u overlay.PeerID) []overlay.PeerID {
	if t == nil {
		return nil
	}
	i := t.pos(u)
	if i < 0 {
		return nil
	}
	return t.adj[t.off[i]:t.off[i+1]]
}

// DeadEnd reports whether the member at position pos (a Send's ToPos)
// has no tree neighbor other than from: a continuation of this tree
// reaching it from from relays to nobody.
func (t *TreeAdj) DeadEnd(pos int32, from overlay.PeerID) bool {
	b, e := t.off[pos], t.off[pos+1]
	return e == b || (e == b+1 && t.adj[b] == from)
}

// CoveredSet is the accumulated set of peers covered by the chain of
// multicast trees a query message descends from. Launchers use it to
// prune their trees. It is an immutable chain — each launch links a new
// node referencing only its own tree's member list — so extending it is
// O(1) and takes one arena slot even on launch-heavy floods.
// Membership checks either walk the chain (Has) or, on the hot path, are
// answered in O(1) from a FloodScratch that has materialized the chain
// into its epoch-tagged bitset.
type CoveredSet struct {
	parent *CoveredSet
	adj    *TreeAdj
}

// Has reports whether p is covered anywhere along the chain.
func (c *CoveredSet) Has(p overlay.PeerID) bool {
	for cc := c; cc != nil; cc = cc.parent {
		if cc.adj.Contains(p) {
			return true
		}
	}
	return false
}

// Empty reports whether the chain covers nothing.
func (c *CoveredSet) Empty() bool {
	for cc := c; cc != nil; cc = cc.parent {
		if cc.adj.Len() > 0 {
			return false
		}
	}
	return true
}

// epochSet is a dense peer set cleared in O(1): membership is "stamp
// equals current epoch", so beginning a fresh set is one counter bump.
type epochSet struct {
	epoch uint32
	mark  []uint32
}

// begin readies an empty set over a population of n peers.
func (s *epochSet) begin(n int) {
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(s.mark)
		s.epoch = 1
	}
}

func (s *epochSet) add(p overlay.PeerID)      { s.mark[p] = s.epoch }
func (s *epochSet) has(p overlay.PeerID) bool { return s.mark[p] == s.epoch }

// FloodScratch is the per-worker arena the forwarding hot path runs in:
// epoch-tagged peer sets replace the per-call maps, and the covered-set
// chain is materialized into a bitset once per distinct chain instead of
// being re-walked per membership probe. A scratch may be reused across
// queries and forwarders; it must not be shared by concurrent callers.
type FloodScratch struct {
	seen epochSet // splice BFS dedup / pruneTree keep set

	// cover is the epoch-tagged bitset of lastCover's chain members;
	// consecutive ForwardInto calls carrying the same chain (the common
	// case while one tree's continuation floods) skip re-materializing.
	cover     epochSet
	lastCover *CoveredSet

	rivals    []overlay.PeerID
	queuePos  []int32
	targetPos []int32
	posList   []int32
	posInKept []int32
	keptKeys  []uint64

	// Election cost views, fetched lazily per pruneLaunch: slot 0 is the
	// launcher, slot i+1 is rivals[i]. Indexing the cached distance
	// vectors directly keeps the rival×candidate loop off the oracle's
	// per-pair path.
	views  []overlay.CostView
	viewOK []bool

	// arena serves the launch-lifetime allocations (pruned CSR slabs
	// and headers, covered-chain nodes) from bump chunks. BeginQuery
	// rewinds it so the next query reuses the chunks in place; a
	// scratch that never sees a query boundary only ever takes fresh
	// chunks.
	arena floodArena
}

// floodArena bump-allocates the objects a launch hands to its messages.
// Chunks are recycled only by BeginQuery's rewind; when one fills up, a
// fresh chunk replaces it and the old one stays alive through the slices
// already handed out, so outstanding references are never overwritten.
// The zero value is ready to use.
type floodArena struct {
	ids      []overlay.PeerID
	idsOff   int
	offs     []int32
	offsOff  int
	costs    []float32
	costOff  int
	chains   []CoveredSet
	chainOff int
	hdrs     []TreeAdj
	hdrOff   int
}

func (a *floodArena) allocIDs(n int) []overlay.PeerID {
	if a.idsOff+n > len(a.ids) {
		sz := 4096
		if n > sz/2 {
			sz = 2 * n
		}
		a.ids = make([]overlay.PeerID, sz)
		a.idsOff = 0
	}
	s := a.ids[a.idsOff : a.idsOff+n : a.idsOff+n]
	a.idsOff += n
	return s
}

func (a *floodArena) allocOffs(n int) []int32 {
	if a.offsOff+n > len(a.offs) {
		sz := 4096
		if n > sz/2 {
			sz = 2 * n
		}
		a.offs = make([]int32, sz)
		a.offsOff = 0
	}
	s := a.offs[a.offsOff : a.offsOff+n : a.offsOff+n]
	a.offsOff += n
	return s
}

func (a *floodArena) allocCosts(n int) []float32 {
	if a.costOff+n > len(a.costs) {
		sz := 4096
		if n > sz/2 {
			sz = 2 * n
		}
		a.costs = make([]float32, sz)
		a.costOff = 0
	}
	s := a.costs[a.costOff : a.costOff+n : a.costOff+n]
	a.costOff += n
	return s
}

func (a *floodArena) allocChain() *CoveredSet {
	if a.chainOff == len(a.chains) {
		a.chains = make([]CoveredSet, 256)
		a.chainOff = 0
	}
	c := &a.chains[a.chainOff]
	a.chainOff++
	return c
}

func (a *floodArena) allocHdr() *TreeAdj {
	if a.hdrOff == len(a.hdrs) {
		a.hdrs = make([]TreeAdj, 256)
		a.hdrOff = 0
	}
	h := &a.hdrs[a.hdrOff]
	a.hdrOff++
	return h
}

// BeginQuery rewinds the scratch's launch arena and drops the
// materialized-chain cache. Callers MUST have a hard lifetime boundary:
// nothing from any earlier query through this scratch — no Send, TreeAdj
// or CoveredSet — may still be referenced, because the arena chunks are
// reused in place. The flood kernel calls this once per query; a scratch
// used without query boundaries (a test's one-off forwarding call) never
// calls it, so its arena never recycles.
func (sc *FloodScratch) BeginQuery() {
	sc.arena.idsOff, sc.arena.offsOff, sc.arena.costOff = 0, 0, 0
	sc.arena.chainOff, sc.arena.hdrOff = 0, 0
	sc.lastCover = nil
}

// extendCover chains adj onto c, from the arena.
func (sc *FloodScratch) extendCover(c *CoveredSet, adj *TreeAdj) *CoveredSet {
	cc := sc.arena.allocChain()
	*cc = CoveredSet{parent: c, adj: adj}
	return cc
}

// materializeCover stamps every member of c's chain into the cover set.
func (sc *FloodScratch) materializeCover(c *CoveredSet, n int) {
	if sc.lastCover == c && sc.cover.epoch != 0 && len(sc.cover.mark) >= n {
		return
	}
	sc.cover.begin(n)
	for cc := c; cc != nil; cc = cc.parent {
		if cc.adj == nil {
			continue
		}
		for _, m := range cc.adj.nodes {
			sc.cover.add(m)
		}
	}
	sc.lastCover = c
}

// Send is one query transmission: the target peer, the multicast tree
// the message is serving (the tree owner's id, or NoTree for blind
// flooding), that tree's adjacency and the chain's covered set. ToPos is
// the target's position within Adj (-1 for blind copies), letting the
// receiver continue the tree without looking itself up. Cost, when
// non-negative, is the memoized sender-side physical delay of the edge
// (from the adjacency's cost mirror); -1 means the engine prices the
// link itself.
type Send struct {
	To      overlay.PeerID
	ToPos   int32
	Cost    float32
	Tree    overlay.PeerID
	Adj     *TreeAdj
	Covered *CoveredSet
}

// NoTree tags transmissions that serve no multicast tree.
const NoTree overlay.PeerID = -1

// Forwarder decides where a peer relays a query. It is the seam between
// the routing strategy (blind flooding vs ACE trees) and the flood
// kernel in package gnutella.
//
// The kernel enforces two layers of duplicate suppression: a peer's
// non-forwarding bookkeeping (scope, responses) happens only on its
// first copy of a query, and each tree tag is continued at most once per
// peer (the kernel drops repeat-tag sends), so tree multicasts complete
// without reflection storms. On a copy that is not p's first, a
// forwarder sends nothing unless the copy serves a tree in which p has a
// neighbor other than from; the flood kernel relies on this to count
// such dead-end duplicates without delivering them (TreeAdj.DeadEnd).
type Forwarder interface {
	// ForwardInto appends to out the transmissions p makes for a
	// received copy of a query originated at src, arriving from
	// neighbor `from` (-1 when p originates it) as part of tree
	// `serving` with adjacency `servingAdj` and chain coverage
	// `covered` (NoTree/nil for blind copies), and returns the extended
	// slice, which aliases out. pPos is p's position within servingAdj
	// (the copy's Send.ToPos; -1 when not serving a tree). first
	// reports whether this is p's first copy of the query. All set
	// bookkeeping runs in sc, which must not be shared by concurrent
	// callers. Implementations never target `from`.
	ForwardInto(sc *FloodScratch, out []Send, src, p, from, serving overlay.PeerID, servingAdj *TreeAdj, pPos int32, covered *CoveredSet, first bool) []Send
}

// BlindFlooding forwards to every neighbor except the arrival link — the
// Gnutella baseline of §3.1.
type BlindFlooding struct {
	Net *overlay.Network
}

var _ Forwarder = BlindFlooding{}

// ForwardInto implements Forwarder: blind flooding relays only the
// first copy, to every neighbor but the sender. It needs no scratch; sc
// may be nil.
func (b BlindFlooding) ForwardInto(_ *FloodScratch, out []Send, _, p, from, _ overlay.PeerID, _ *TreeAdj, _ int32, _ *CoveredSet, first bool) []Send {
	if !first {
		return out
	}
	for _, q := range b.Net.NeighborsView(p) {
		if q != from {
			out = append(out, Send{To: q, ToPos: -1, Cost: -1, Tree: NoTree})
		}
	}
	return out
}

// TreeForwarding routes queries along ACE multicast trees (§3.3–3.4).
// The source multicasts over its own tree, which spans its h-neighbor
// closure (Figures 5/6); every member relays the tree onward. A member
// whose surroundings the chain has not covered extends the search by
// launching its own tree, pruned to the branches that reach uncovered
// peers: uncovered direct neighbors are always kept (which is what
// retains the paper's search scope — every reached peer guarantees its
// neighbors are reached), and a farther uncovered member is kept only if
// the launcher is the closest already-covered peer it knows to that
// member, so adjacent launchers do not re-flood each other's regions.
//
// Tree links are forwarding connections, not necessarily overlay
// connections — a peer can always send to an IP it learned from a cost
// table (Figure 3(b) draws exactly such a link).
//
// Peers without built state (joined since the last exchange) fall back
// to blind flooding, as a real client would before learning any tables.
type TreeForwarding struct {
	Opt *Optimizer
}

var _ Forwarder = TreeForwarding{}

// ForwardInto implements Forwarder.
func (t TreeForwarding) ForwardInto(sc *FloodScratch, out []Send, src, p, from, serving overlay.PeerID, servingAdj *TreeAdj, pPos int32, covered *CoveredSet, first bool) []Send {
	own := t.Opt.State(p)
	if own == nil {
		return BlindFlooding{Net: t.Opt.Network()}.ForwardInto(sc, out, src, p, from, serving, servingAdj, pPos, covered, first)
	}
	net := t.Opt.Network()
	if serving != NoTree && serving != p {
		// Continue the tree this message serves. The sender already
		// carries this tag, so it is excluded.
		out = appendTreeSends(sc, net, out, servingAdj, pPos, serving, covered, from, true)
	}
	if first {
		// A launch is a fresh multicast: it may legitimately flow back
		// through the sender, which has not seen this tag and may be
		// the only path to an uncovered branch.
		if pruned, rootPos, cs := t.pruneLaunch(sc, own, p, covered); pruned != nil {
			out = appendTreeSends(sc, net, out, pruned, rootPos, p, cs, from, false)
		}
	}
	return out
}

// appendTreeSends walks adj outward from position pPos, appending one
// Send per live target. A target may receive two tags from the same
// relay when it sits on both trees; dropping either would orphan that
// tree's subtree. Targets that left since the last exchange are spliced
// around: the relay holds the full tree, so it forwards directly to the
// dead member's tree children instead. The whole walk runs in tree
// positions through the adjacency's position mirror.
func appendTreeSends(sc *FloodScratch, net *overlay.Network, out []Send, adj *TreeAdj, pPos int32, tree overlay.PeerID, cs *CoveredSet, from overlay.PeerID, excludeFrom bool) []Send {
	if adj == nil || pPos < 0 {
		return out
	}
	// Fast path: emit the bucket in order optimistically; the first dead
	// neighbor (other than the excluded sender, which the BFS skips
	// without splicing anyway) rolls the batch back and falls through to
	// the splice BFS.
	b := adj.off[pPos]
	ids := adj.adj[b:adj.off[pPos+1]]
	poss := adj.adjPos[b:adj.off[pPos+1]]
	base := len(out)
	live := true
	for i, q := range ids {
		if excludeFrom && q == from {
			continue
		}
		if !net.Alive(q) {
			out = out[:base]
			live = false
			break
		}
		c := float32(-1)
		if adj.cost != nil {
			c = adj.cost[b+int32(i)]
		}
		out = append(out, Send{To: q, ToPos: poss[i], Cost: c, Tree: tree, Adj: adj, Covered: cs})
	}
	if live {
		return out
	}
	sc.seen.begin(adj.Len())
	sc.seen.add(overlay.PeerID(pPos))
	queue := append(sc.queuePos[:0], adj.adjPos[adj.off[pPos]:adj.off[pPos+1]]...)
	for i := 0; i < len(queue); i++ {
		qp := queue[i]
		if sc.seen.has(overlay.PeerID(qp)) {
			continue
		}
		sc.seen.add(overlay.PeerID(qp))
		q := adj.nodes[qp]
		if excludeFrom && q == from {
			continue
		}
		if net.Alive(q) {
			// Splice targets may be several tree hops away, so the edge
			// is priced by the engine (Cost -1).
			out = append(out, Send{To: q, ToPos: qp, Cost: -1, Tree: tree, Adj: adj, Covered: cs})
		} else {
			queue = append(queue, adj.adjPos[adj.off[qp]:adj.off[qp+1]]...)
		}
	}
	sc.queuePos = queue
	return out
}

// pruneLaunch cuts p's own tree down to the branches that reach peers
// the chain has not covered, applying the neighbor guarantee and the
// closest-covered-peer election, and returns the pruned adjacency, the
// launcher's position within it, and the extended covered set (nil
// adjacency when the launch would add nothing). An originating peer
// (empty chain) floods its whole tree, which reuses the PeerState CSR
// slabs without copying.
func (t TreeForwarding) pruneLaunch(sc *FloodScratch, st *PeerState, p overlay.PeerID, covered *CoveredSet) (*TreeAdj, int32, *CoveredSet) {
	net := t.Opt.Network()
	if covered.Empty() {
		full := st.FullTree()
		return full, 0, sc.extendCover(covered, full)
	}

	n := net.N()
	sc.materializeCover(covered, n)
	nbrs := net.NeighborsView(p)

	// The rival claimants (covered members of p's closure) and their
	// election cost views materialize lazily — most launches keep every
	// uncovered member through the neighbor guarantee and never hold an
	// election at all.
	var rivals []overlay.PeerID
	var views []overlay.CostView
	var viewOK []bool
	haveRivals := false

	// Targets are collected as closure POSITIONS — pruneTree runs
	// entirely in position space.
	targets := sc.targetPos[:0]
	noElection := t.Opt.Config().NoLaunchElection
	for i, x := range st.Closure {
		if x == p || sc.cover.has(x) {
			continue
		}
		if noElection || onTree(nbrs, x) {
			targets = append(targets, int32(i)) // scope guarantee / ablation
			continue
		}
		if !haveRivals {
			rivals = sc.rivals[:0]
			for _, c := range st.Closure {
				if c != p && sc.cover.has(c) {
					rivals = append(rivals, c)
				}
			}
			sc.rivals = rivals
			nv := len(rivals) + 1
			if cap(sc.views) < nv {
				sc.views = make([]overlay.CostView, nv)
				sc.viewOK = make([]bool, nv)
			}
			views, viewOK = sc.views[:nv], sc.viewOK[:nv]
			for j := range viewOK {
				viewOK[j] = false
			}
			haveRivals = true
		}
		// Election: keep x only if p is the nearest covered peer it
		// knows to x (ties broken toward the smaller id). Slot 0 is p's
		// cost view, slot ci+1 is rivals[ci]'s, each fetched on first use.
		win := true
		if !viewOK[0] {
			views[0] = net.CostsFrom(p)
			viewOK[0] = true
		}
		px := views[0].To(x)
		for ci, c := range rivals {
			if !viewOK[ci+1] {
				views[ci+1] = net.CostsFrom(c)
				viewOK[ci+1] = true
			}
			if cx := views[ci+1].To(x); cx < px || (cx == px && c < p) {
				win = false
				break
			}
		}
		if win {
			targets = append(targets, int32(i))
		}
	}
	sc.targetPos = targets
	if len(targets) == 0 {
		return nil, -1, nil
	}
	if len(targets) == len(st.Closure)-1 {
		// Every non-root member survived: the "pruned" tree is the whole
		// tree, so reuse the state's CSR view instead of copying it. (Its
		// member order differs from a built copy's, but positions are
		// internal to one adjacency — the emitted sends are identical.)
		full := st.FullTree()
		return full, 0, sc.extendCover(covered, full)
	}

	pruned, rootPos := pruneTree(sc, st, targets)
	return pruned, rootPos, sc.extendCover(covered, pruned)
}

// pruneTree keeps the branches of st's tree (rooted at its owner,
// closure position 0) that reach at least one of the target positions,
// returning the kept subtree as a fresh CSR adjacency plus the root's
// position within it. The keep set is the union of the target→root
// parent walks — each walk stops at the first already-kept ancestor, so
// marking costs O(kept) total instead of a full-tree DFS. Assembly runs
// in closure positions over the state's CSR and its position mirror —
// no id lookups anywhere.
func pruneTree(sc *FloodScratch, st *PeerState, targets []int32) (*TreeAdj, int32) {
	s := len(st.Closure)
	keep := &sc.seen // position-keyed for the duration of this call
	keep.begin(s)
	keep.add(0)
	kept := append(sc.posList[:0], 0)
	for _, pi := range targets {
		for w := pi; !keep.has(overlay.PeerID(w)); w = st.parentPos[w] {
			keep.add(overlay.PeerID(w))
			kept = append(kept, w)
		}
	}

	// The walks collect the kept set unordered; an insertion sort by id
	// restores the ascending-member order the CSR format promises. Each
	// (id, position) pair is packed into one uint64 with the id in the
	// high half, so the sort compares and moves single words instead of
	// chasing st.Closure on every probe.
	if cap(sc.keptKeys) < len(kept) {
		sc.keptKeys = make([]uint64, len(kept))
	}
	keys := sc.keptKeys[:len(kept)]
	for i, v := range kept {
		keys[i] = uint64(uint32(st.Closure[v]))<<32 | uint64(uint32(v))
	}
	for i := 1; i < len(keys); i++ {
		kv := keys[i]
		j := i - 1
		for j >= 0 && keys[j] > kv {
			keys[j+1] = keys[j]
			j--
		}
		keys[j+1] = kv
	}
	for i, kv := range keys {
		kept[i] = int32(uint32(kv))
	}
	sc.posList = kept
	k := len(kept)
	// The kept set is a union of root paths, hence a connected subtree:
	// its induced adjacency is exactly the k-1 tree edges, both ways.
	total := 2 * (k - 1)

	// Inverse map: closure position → pruned position, valid only for
	// kept entries (all of which were just written).
	if cap(sc.posInKept) < s {
		sc.posInKept = make([]int32, s)
	}
	posInKept := sc.posInKept[:s]
	rootPos := int32(0)
	for i, pi := range kept {
		posInKept[pi] = int32(i)
		if pi == 0 {
			rootPos = int32(i)
		}
	}

	// nodes and adj share one id slab; off and adjPos share one int32
	// slab; the header is its own small object. All outlive the call —
	// messages carry them until the flood drains — so they come from the
	// arena.
	slab := sc.arena.allocIDs(k + total)
	ints := sc.arena.allocOffs(k + 1 + total)
	hdr := sc.arena.allocHdr()
	var cost []float32
	if st.treeCost != nil {
		cost = sc.arena.allocCosts(total)
	}
	nodes := slab[:k:k]
	adj := slab[k:]
	off := ints[: k+1 : k+1]
	adjPos := ints[k+1:]
	w := 0
	for i, pi := range kept {
		nodes[i] = st.Closure[pi]
		off[i] = int32(w)
		b := st.treeOff[pi]
		for j, c := range st.treeAdjPos[b:st.treeOff[pi+1]] {
			if keep.has(overlay.PeerID(c)) {
				adj[w] = st.treeAdj[b+int32(j)]
				adjPos[w] = posInKept[c]
				if cost != nil {
					cost[w] = st.treeCost[b+int32(j)]
				}
				w++
			}
		}
	}
	off[k] = int32(w)
	*hdr = TreeAdj{nodes: nodes, off: off, adj: adj, adjPos: adjPos, cost: cost}
	return hdr, rootPos
}
