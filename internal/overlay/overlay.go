// Package overlay maintains the logical peer-to-peer network state: which
// peers are alive, who neighbors whom, where each peer attaches to the
// physical network, and the bootstrap/host-cache join mechanism whose
// randomness causes the topology mismatch the paper attacks.
package overlay

import (
	"fmt"
	"slices"

	"ace/internal/fault"
	"ace/internal/obs/tracer"
	"ace/internal/physical"
	"ace/internal/sim"
)

// PeerID identifies a peer slot. Slots are stable across leave/rejoin so
// a returning peer keeps its host cache, as in Gnutella clients.
type PeerID int

// Network is the mutable overlay state. It is not safe for concurrent
// mutation; the simulators drive it from a single goroutine. Concurrent
// READS are safe while no mutation is in flight (the optimizer's rebuild
// workers rely on this).
type Network struct {
	oracle *physical.Oracle
	attach []int
	alive  []bool
	// nbr[p] is p's neighbor list, kept sorted ascending across every
	// Connect/Disconnect so reads never sort or allocate.
	nbr []([]PeerID)
	// hostCache remembers the neighbor addresses a peer knew when it
	// left, so rejoining preferentially reconnects to them (§1: "the
	// peer will try to connect to the peers whose IP addresses have
	// already been cached").
	hostCache [][]PeerID
	nAlive    int
	edges     int

	// Crash-failure state: a crashed peer's links are not torn down by a
	// handshake — each surviving endpoint keeps a half-open reference in
	// its adjacency until a failed probe makes it purge the entry.
	// dangling counts those references (kept out of `edges`, which counts
	// live connections only); danglingAt[p] lists the peers still holding
	// a reference to crashed peer p, so a rejoin can purge the leftovers
	// before reconnecting (a stale entry would otherwise corrupt the
	// sorted adjacency invariant).
	dangling   int
	danglingAt [][]PeerID

	// faults is the attached fault injector; nil (the default) injects
	// nothing and costs consumers one predicted branch.
	faults *fault.Injector

	// Causal-trace sink for peer lifecycle events (the "overlay" track),
	// re-acquired when the tracer's enable generation moves. Only the
	// cold Join/Leave/Crash paths touch it.
	trRing *tracer.Ring
	trGen  uint64

	// Mutation journal: every effective Connect/Disconnect/Join/Leave
	// appends one Event and bumps version. journalBase is the version of
	// the oldest retained event minus... see EventsSince.
	version     uint64
	journalBase uint64
	journal     []Event
}

// EventKind tags one entry of the mutation journal.
type EventKind uint8

const (
	// EventConnect records a new edge P—Q.
	EventConnect EventKind = iota + 1
	// EventDisconnect records a removed edge P—Q (Leave journals one per
	// dropped link before its EventLeave).
	EventDisconnect
	// EventJoin records P turning alive (Q is -1).
	EventJoin
	// EventLeave records P turning dead (Q is -1).
	EventLeave
	// EventCrash records P dying without a handshake (Q is -1). Like
	// Leave it is preceded by one EventDisconnect per incident link —
	// the links stop working at crash time even though the surviving
	// endpoints' adjacency entries linger until purged.
	EventCrash
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventConnect:
		return "connect"
	case EventDisconnect:
		return "disconnect"
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventCrash:
		return "crash"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one journaled mutation. Q is -1 for liveness events.
type Event struct {
	Kind EventKind
	P, Q PeerID
}

// maxJournal bounds retained journal memory: past it the oldest half is
// dropped and consumers whose cursor falls behind resynchronize with a
// full scan (EventsSince reports !ok).
const maxJournal = 1 << 16

// journalCap is the effective journal bound: maxJournal, or twice the
// population when that is larger. A fixed bound would shed the journal
// mid-round on large networks (one churn round can easily journal more
// than 2^16 events at 100k+ peers), silently downgrading every
// incremental consumer to full rescans; scaling with N keeps the
// retained window proportional to one round's worth of churn while
// staying a vanishing fraction of the network's own memory.
func (n *Network) journalCap() int {
	if c := 2 * len(n.attach); c > maxJournal {
		return c
	}
	return maxJournal
}

// NewNetwork creates an overlay with one peer slot per attachment point;
// all peers start dead with no links. attach[i] is the physical node of
// peer i and must be a valid node of the oracle's graph.
func NewNetwork(oracle *physical.Oracle, attach []int) (*Network, error) {
	for i, a := range attach {
		if a < 0 || a >= oracle.N() {
			return nil, fmt.Errorf("overlay: attachment %d of peer %d out of range [0,%d)", a, i, oracle.N())
		}
	}
	n := len(attach)
	return &Network{
		oracle:    oracle,
		attach:    append([]int(nil), attach...),
		alive:     make([]bool, n),
		nbr:       make([][]PeerID, n),
		hostCache: make([][]PeerID, n),
	}, nil
}

// RandomAttachments draws nPeers distinct physical nodes from [0, physN).
func RandomAttachments(rng *sim.RNG, physN, nPeers int) ([]int, error) {
	if nPeers > physN {
		return nil, fmt.Errorf("overlay: %d peers exceed %d physical nodes", nPeers, physN)
	}
	perm := rng.Perm(physN)
	return perm[:nPeers], nil
}

// N reports the total number of peer slots.
func (n *Network) N() int { return len(n.attach) }

// NumAlive reports how many peers are currently alive.
func (n *Network) NumAlive() int { return n.nAlive }

// NumEdges reports the number of live overlay connections.
func (n *Network) NumEdges() int { return n.edges }

// Alive reports whether p is in the system.
func (n *Network) Alive(p PeerID) bool { return n.alive[p] }

// AlivePeers returns all live peers in ascending order.
func (n *Network) AlivePeers() []PeerID {
	return n.AlivePeersAppend(nil)
}

// AlivePeersAppend appends all live peers in ascending order to buf and
// returns it; with sufficient capacity it allocates nothing.
func (n *Network) AlivePeersAppend(buf []PeerID) []PeerID {
	for p := range n.alive {
		if n.alive[p] {
			buf = append(buf, PeerID(p))
		}
	}
	return buf
}

// Attachment returns the physical node peer p attaches to.
func (n *Network) Attachment(p PeerID) int { return n.attach[p] }

// Cost returns the physical delay between peers p and q — the Phase-1
// probe measurement.
func (n *Network) Cost(p, q PeerID) float64 {
	return n.oracle.Delay(n.attach[p], n.attach[q])
}

// Oracle exposes the underlying physical distance oracle.
func (n *Network) Oracle() *physical.Oracle { return n.oracle }

// CostsFrom returns a cost view rooted at p: view.To(q) equals Cost(p, q)
// resolved directly against p's cached distance vector, so loops that
// price many destinations from one source (Phase-3 candidate scoring,
// exchange pricing) pay the oracle's read lock once per source instead of
// once per query.
func (n *Network) CostsFrom(p PeerID) CostView {
	return CostView{vec: n.oracle.Vector(n.attach[p]), attach: n.attach}
}

// CostsFromCached returns a cost view rooted at p only when p's distance
// vector is already cached, never triggering a vector fill. When ok, the
// view resolves costs exactly as Cost(p, q) would (the oracle prefers the
// source's vector whenever it exists), so callers can batch per-source
// lookups without changing any returned value — and fall back to Cost
// when it is not.
func (n *Network) CostsFromCached(p PeerID) (CostView, bool) {
	vec, ok := n.oracle.VectorCached(n.attach[p])
	if !ok {
		return CostView{}, false
	}
	return CostView{vec: vec, attach: n.attach}, true
}

// CostView is a cost function from a fixed source peer. It holds a
// read-only reference into the oracle's vector cache and stays valid for
// the life of the network.
type CostView struct {
	vec    []float32
	attach []int
}

// To returns the physical delay from the view's source to q.
func (cv CostView) To(q PeerID) float64 { return float64(cv.vec[cv.attach[q]]) }

// Neighbors returns p's current neighbors in ascending order. The slice
// is freshly allocated and owned by the caller.
func (n *Network) Neighbors(p PeerID) []PeerID {
	return append([]PeerID(nil), n.nbr[p]...)
}

// NeighborsView returns p's neighbors in ascending order WITHOUT copying.
// The slice is owned by the network and is invalidated by the next
// mutation of p's adjacency; callers must not modify it or hold it across
// Connect/Disconnect/Join/Leave. Hot read-only loops use this to avoid
// the per-call allocation of Neighbors.
func (n *Network) NeighborsView(p PeerID) []PeerID { return n.nbr[p] }

// NeighborsAppend appends p's neighbors in ascending order to buf and
// returns it. With sufficient capacity it allocates nothing, and unlike
// NeighborsView the result survives subsequent mutations.
func (n *Network) NeighborsAppend(p PeerID, buf []PeerID) []PeerID {
	return append(buf, n.nbr[p]...)
}

// Degree reports p's current neighbor count.
func (n *Network) Degree(p PeerID) int { return len(n.nbr[p]) }

// HasEdge reports whether p and q are connected. Adjacency lists are
// short for almost every peer (mean degree is a small constant), where a
// branch-predictable linear scan over the sorted slice beats the
// per-step indirection of a binary search; hubs fall through to the
// search. This sits on Phase 3's innermost loop (candidate filtering
// probes it per neighbor-of-neighbor).
func (n *Network) HasEdge(p, q PeerID) bool {
	s := n.nbr[p]
	if len(s) <= 16 {
		for _, v := range s {
			if v >= q {
				return v == q
			}
		}
		return false
	}
	_, ok := slices.BinarySearch(s, q)
	return ok
}

// insertSorted adds q to the sorted slice s, keeping order.
func insertSorted(s []PeerID, q PeerID) []PeerID {
	i, _ := slices.BinarySearch(s, q)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = q
	return s
}

// removeSorted deletes q from the sorted slice s, keeping order.
func removeSorted(s []PeerID, q PeerID) []PeerID {
	i, ok := slices.BinarySearch(s, q)
	if ok {
		s = append(s[:i], s[i+1:]...)
	}
	return s
}

// record appends one journal entry and advances the version, shedding the
// oldest half of the journal when it outgrows journalCap.
func (n *Network) record(kind EventKind, p, q PeerID) {
	if c := n.journalCap(); len(n.journal) >= c {
		drop := len(n.journal) / 2
		// The shed must move survivors to a fresh backing array — slices
		// handed out by EventsSince may still be in flight — but sizing it
		// to the full cap up front keeps appends from regrowing it before
		// the next shed: one bounded allocation per cap/2 events instead
		// of a doubling ladder, which at million-peer scale was a leading
		// source of GC churn.
		nj := make([]Event, 0, c)
		n.journal = append(nj, n.journal[drop:]...)
		n.journalBase += uint64(drop)
	}
	n.journal = append(n.journal, Event{Kind: kind, P: p, Q: q})
	n.version++
}

// Version reports the monotonic mutation counter: it advances by exactly
// one for every effective Connect/Disconnect/Join/Leave and never moves
// on no-op calls.
func (n *Network) Version() uint64 { return n.version }

// EventsSince returns the journal entries recorded after the caller's
// cursor (a Version() value captured earlier) along with the next cursor.
// Reads do not consume: the same cursor always yields the same events.
// ok is false when the journal no longer reaches back to the cursor
// (capacity shedding or CompactJournal); the caller must then resync from
// a full scan of the network and continue from next.
func (n *Network) EventsSince(cursor uint64) (events []Event, next uint64, ok bool) {
	if cursor < n.journalBase || cursor > n.version {
		return nil, n.version, false
	}
	return n.journal[cursor-n.journalBase:], n.version, true
}

// CompactJournal drops journal entries at versions <= cursor. Consumers
// that already advanced past cursor are unaffected; a consumer still
// behind it will observe !ok from EventsSince and resynchronize.
func (n *Network) CompactJournal(cursor uint64) {
	if cursor <= n.journalBase {
		return
	}
	if cursor > n.version {
		cursor = n.version
	}
	drop := cursor - n.journalBase
	n.journal = n.journal[drop:]
	n.journalBase = cursor
}

// Connect links two live peers. Connecting dead peers, a peer to itself,
// or an existing edge reports false without changing state.
func (n *Network) Connect(p, q PeerID) bool {
	if p == q || !n.alive[p] || !n.alive[q] || n.HasEdge(p, q) {
		return false
	}
	n.nbr[p] = insertSorted(n.nbr[p], q)
	n.nbr[q] = insertSorted(n.nbr[q], p)
	n.edges++
	n.record(EventConnect, p, q)
	return true
}

// Disconnect removes the link between p and q, reporting whether one
// existed. A half-open edge to a crashed peer routes to the purge path
// instead: the live connection it was part of is already gone (and was
// journaled at crash time).
func (n *Network) Disconnect(p, q PeerID) bool {
	if !n.alive[p] || !n.alive[q] {
		switch {
		case n.alive[p]:
			return n.PurgeDangling(p, q)
		case n.alive[q]:
			return n.PurgeDangling(q, p)
		default:
			return false
		}
	}
	if !n.HasEdge(p, q) {
		return false
	}
	n.nbr[p] = removeSorted(n.nbr[p], q)
	n.nbr[q] = removeSorted(n.nbr[q], p)
	n.edges--
	n.record(EventDisconnect, p, q)
	return true
}

// revive flips a dead peer alive and journals the join; generators use it
// directly, Join wraps it with the connection protocol. Any half-open
// references still held against p from a crash are purged first — the
// returning process is a fresh socket, and a stale adjacency entry would
// otherwise duplicate on reconnection.
func (n *Network) revive(p PeerID) bool {
	if n.alive[p] {
		return false
	}
	if n.dangling > 0 && int(p) < len(n.danglingAt) {
		for _, q := range n.danglingAt[p] {
			n.nbr[q] = removeSorted(n.nbr[q], p)
			n.dangling--
		}
		n.danglingAt[p] = nil
	}
	n.alive[p] = true
	n.nAlive++
	n.record(EventJoin, p, -1)
	n.traceChurn(tracer.KindPeerJoin, p)
	return true
}

// traceChurn records a peer lifecycle event on the tracer's "overlay"
// track: one atomic load when tracing is off. Only the cold
// Join/Leave/Crash paths call it, so the hot Connect/Disconnect journal
// stays untouched.
func (n *Network) traceChurn(kind tracer.Kind, p PeerID) {
	if !tracer.On() {
		return
	}
	t := tracer.Default()
	if g := t.Gen(); g != n.trGen || n.trRing == nil {
		n.trGen = g
		n.trRing = t.NewRing("overlay")
	}
	n.trRing.Record(tracer.Event{
		TS: t.Now(), Round: t.RoundSeq(), Kind: kind, A: int32(p),
	})
}

// joinTriadProb is the probability that a joining peer's next link goes
// to a neighbor of a peer it already connected to (an address learned
// from that peer's Ping/Pong) instead of a fresh bootstrap address. This
// is what keeps the overlay's small-world clustering alive under churn.
const joinTriadProb = 0.5

// Join brings a dead peer into the system and connects it to up to
// degreeTarget live peers: first its cached addresses that are still
// alive, then peers learned from its new neighbors or supplied by the
// bootstrap node. It reports the number of connections established.
func (n *Network) Join(rng *sim.RNG, p PeerID, degreeTarget int) int {
	if !n.revive(p) {
		return 0
	}
	made := 0
	for _, q := range n.hostCache[p] {
		if made >= degreeTarget {
			break
		}
		if n.alive[q] && n.Connect(p, q) {
			made++
		}
	}
	if made >= degreeTarget {
		return made
	}
	var bootstrap []PeerID
	for attempts := 0; made < degreeTarget && attempts < 20*(degreeTarget+1); attempts++ {
		if made > 0 && rng.Float64() < joinTriadProb {
			// Ask an existing neighbor for one of its neighbors.
			mine := n.NeighborsView(p)
			nbrs := n.NeighborsView(mine[rng.Intn(len(mine))])
			if len(nbrs) > 0 && n.Connect(p, nbrs[rng.Intn(len(nbrs))]) {
				made++
				continue
			}
		}
		if bootstrap == nil {
			bootstrap = n.AlivePeers()
			rng.Shuffle(len(bootstrap), func(i, j int) {
				bootstrap[i], bootstrap[j] = bootstrap[j], bootstrap[i]
			})
		}
		if len(bootstrap) == 0 {
			break
		}
		q := bootstrap[len(bootstrap)-1]
		bootstrap = bootstrap[:len(bootstrap)-1]
		if n.Connect(p, q) {
			made++
		}
	}
	return made
}

// JoinUniform brings a dead peer into the system and connects it to up
// to degreeTarget live peers drawn uniformly from the population by
// rejection sampling — the bootstrap node handing out random addresses,
// without Join's host-cache and triad protocol. Its cost is O(degree),
// independent of the population, where Join's bootstrap fallback copies
// and shuffles the entire live list; million-peer churn drivers use it
// so that joins do not dominate the round. It reports the number of
// connections established.
func (n *Network) JoinUniform(rng *sim.RNG, p PeerID, degreeTarget int) int {
	if !n.revive(p) {
		return 0
	}
	made := 0
	for attempts := 0; made < degreeTarget && attempts < 20*(degreeTarget+1); attempts++ {
		q := PeerID(rng.Intn(len(n.attach)))
		if q != p && n.alive[q] && n.Connect(p, q) {
			made++
		}
	}
	return made
}

// maxHostCache bounds how many addresses a peer remembers, as real
// clients bound their host caches.
const maxHostCache = 64

// Leave removes a live peer and drops all its links. Its neighbor
// addresses go to the front of its host cache for a later rejoin, ahead
// of the addresses earlier departures left there, up to maxHostCache
// entries. Each
// dropped link is journaled as a disconnect before the leave itself, so
// journal consumers see the exact endpoints the departure touched.
func (n *Network) Leave(p PeerID) {
	if !n.alive[p] {
		return
	}
	merged := n.Neighbors(p)
	seen := make(map[PeerID]bool, len(merged)+len(n.hostCache[p]))
	for _, q := range merged {
		seen[q] = true
	}
	for _, q := range n.hostCache[p] {
		if !seen[q] && len(merged) < maxHostCache {
			seen[q] = true
			merged = append(merged, q)
		}
	}
	n.hostCache[p] = merged
	for _, q := range n.nbr[p] {
		if !n.alive[q] {
			// A half-open reference to a crashed peer dies with p; its
			// disconnect was journaled at q's crash.
			n.dangling--
			n.danglingAt[q] = removeSorted(n.danglingAt[q], p)
			continue
		}
		n.nbr[q] = removeSorted(n.nbr[q], p)
		n.edges--
		n.record(EventDisconnect, p, q)
	}
	n.nbr[p] = n.nbr[p][:0]
	n.alive[p] = false
	n.nAlive--
	n.record(EventLeave, p, -1)
	n.traceChurn(tracer.KindPeerLeave, p)
}

// Crash removes a live peer WITHOUT the leave handshake: its links stop
// carrying traffic immediately (journaled as disconnects, then an
// EventCrash), but each surviving neighbor keeps a half-open reference
// in its adjacency — it has no way to know yet — until a failed probe
// makes it call PurgeDangling, or the crashed slot rejoins. The host
// cache merges as in Leave: real clients persist theirs to disk, so a
// crash does not erase it.
func (n *Network) Crash(p PeerID) {
	if !n.alive[p] {
		return
	}
	merged := n.Neighbors(p)
	seen := make(map[PeerID]bool, len(merged)+len(n.hostCache[p]))
	for _, q := range merged {
		seen[q] = true
	}
	for _, q := range n.hostCache[p] {
		if !seen[q] && len(merged) < maxHostCache {
			seen[q] = true
			merged = append(merged, q)
		}
	}
	n.hostCache[p] = merged
	if n.danglingAt == nil {
		n.danglingAt = make([][]PeerID, len(n.attach))
	}
	holders := n.danglingAt[p][:0]
	for _, q := range n.nbr[p] {
		if !n.alive[q] {
			// p held its own half-open reference to an earlier crash;
			// it dies with p rather than becoming doubly dangling.
			n.dangling--
			n.danglingAt[q] = removeSorted(n.danglingAt[q], p)
			continue
		}
		holders = append(holders, q)
		n.edges--
		n.dangling++
		n.record(EventDisconnect, p, q)
	}
	n.danglingAt[p] = holders
	n.nbr[p] = n.nbr[p][:0]
	n.alive[p] = false
	n.nAlive--
	n.record(EventCrash, p, -1)
	n.traceChurn(tracer.KindPeerCrash, p)
}

// PurgeDangling drops holder's half-open adjacency entry for crashed
// peer dead, reporting whether one existed. It journals nothing: the
// link's disconnect was journaled when the crash severed it; this is
// only the surviving endpoint catching up with that fact.
func (n *Network) PurgeDangling(holder, dead PeerID) bool {
	if n.dangling == 0 || int(dead) >= len(n.danglingAt) || n.alive[dead] {
		return false
	}
	i, ok := slices.BinarySearch(n.nbr[holder], dead)
	if !ok {
		return false
	}
	n.nbr[holder] = append(n.nbr[holder][:i], n.nbr[holder][i+1:]...)
	n.dangling--
	n.danglingAt[dead] = removeSorted(n.danglingAt[dead], holder)
	return true
}

// Dangling reports how many half-open references to crashed peers are
// still held across the overlay.
func (n *Network) Dangling() int { return n.dangling }

// DanglingPair is one half-open edge a crash left behind: Holder still
// lists Dead in its adjacency.
type DanglingPair struct {
	Holder, Dead PeerID
}

// DanglingPairs appends every half-open reference in deterministic
// order (ascending dead peer, then ascending holder) and returns buf.
func (n *Network) DanglingPairs(buf []DanglingPair) []DanglingPair {
	if n.dangling == 0 {
		return buf
	}
	for dead := range n.danglingAt {
		for _, holder := range n.danglingAt[dead] {
			buf = append(buf, DanglingPair{Holder: holder, Dead: PeerID(dead)})
		}
	}
	return buf
}

// SetFaults attaches a fault injector; nil detaches. Consumers (the
// optimizer, the flood kernels) read it per round/query via Faults.
func (n *Network) SetFaults(in *fault.Injector) { n.faults = in }

// Faults returns the attached fault injector, nil when none.
func (n *Network) Faults() *fault.Injector { return n.faults }

// AverageDegree reports the mean degree over live peers.
func (n *Network) AverageDegree() float64 {
	if n.nAlive == 0 {
		return 0
	}
	return 2 * float64(n.edges) / float64(n.nAlive)
}

// IsConnected reports whether all live peers form one component.
// Half-open references to crashed peers carry no traffic and are
// skipped.
func (n *Network) IsConnected() bool {
	peers := n.AlivePeers()
	if len(peers) <= 1 {
		return true
	}
	seen := map[PeerID]bool{peers[0]: true}
	stack := []PeerID{peers[0]}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range n.nbr[u] {
			if n.alive[v] && !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return len(seen) == len(peers)
}

// Edge is one live overlay connection with its physical cost.
type Edge struct {
	P, Q PeerID
	Cost float64
}

// SnapshotEdges returns every live connection once (P < Q), sorted, with
// costs — used for serialization and invariant checks. Sortedness falls
// out of the sorted adjacency representation; half-open references to
// crashed peers are not live connections and are skipped.
func (n *Network) SnapshotEdges() []Edge {
	out := make([]Edge, 0, n.edges)
	for p := range n.nbr {
		for _, q := range n.nbr[p] {
			if PeerID(p) < q && n.alive[p] && n.alive[q] {
				out = append(out, Edge{P: PeerID(p), Q: q, Cost: n.Cost(PeerID(p), q)})
			}
		}
	}
	return out
}
