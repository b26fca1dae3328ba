package gnutella

import (
	"math"
	"sync"
	"time"

	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/obs/tracer"
	"ace/internal/overlay"
)

// Kernel is the flat query-flood engine: one reusable arena holding every
// piece of per-query state on epoch-stamped dense arrays indexed by peer,
// a non-boxing typed event heap, and the forwarding scratch. Acquiring a
// kernel once and flooding many queries through it performs O(1) heap
// allocations per query beyond the launch adjacencies the messages carry.
//
// A kernel is single-threaded; parallel evaluators use one kernel per
// worker (see AcquireKernel). The exported surface doubles as the
// building kit for flood variants in other packages (index caching in
// internal/cache drives the same loop with its own delivery rules).
type Kernel struct {
	net *overlay.Network
	fwd core.Forwarder
	fsc core.FloodScratch

	// Per-peer query state, valid when stamp equals the current epoch:
	// arrival time, memoized cumulative inverse-path cost, and the
	// arrival link (the Gnutella QueryHit route). One struct per peer, so
	// an arrival touches a single cache line instead of four arrays.
	epoch   uint32
	arrMark []uint32
	arr     []arrivalState
	order   []overlay.PeerID // arrival order, source first

	// queued holds each peer's earliest arrival time among the copies
	// pushed to it this query, valid when its mark equals the epoch. A
	// queued copy landing no later than a new one pops first (equal
	// times tie-break on the lower seq), so Emit reads it to settle
	// copies that cannot be their target's first.
	queued []queuedState

	// Per-(peer, tree) continuation dedup: a peer forwards each tree tag
	// at most once. The first tag a peer serves lives in its flat served
	// slot — almost every peer serves exactly one tree — and only the
	// rare extras spill into servedTrees[p] (reset lazily per epoch); the
	// lists are tiny, so a linear scan beats any map.
	served      []servedState
	servedTrees [][]overlay.PeerID

	// respMark is the epoch-stamped responder set, so the per-arrival
	// responder check is one array load instead of a map probe.
	respMark []uint32

	// The event queue: a specialized 4-ary min-heap over (at, seq) with
	// the comparison inlined — no container/heap boxing, no generic
	// closure call. Keys pack (at << packSeqBits | seq) into one uint64 —
	// the lexicographic (at, seq) order is a plain integer compare, which
	// the sift loops turn into branchless conditional moves — and since
	// seq increments exactly once per push, the key's low bits double as
	// the payload index into the flat pay array. Floods whose virtual
	// times or send counts exceed the packed ranges (hundreds of virtual
	// seconds; 16M sends) migrate once to the wide 16-byte-key heap and
	// finish there, preserving the identical total order. Launches are
	// interned in their own table — one entry per (emit, tree) batch —
	// instead of being embedded per message.
	heap     []uint64
	wheap    []heapKey
	wide     bool
	pay      []flight
	seq      uint32
	launches []launchRef
	sends    []core.Send // reusable ForwardInto target

	scope         int
	transmissions int
	duplicates    int
	settled       int // copies Emit counted instead of queueing
	traffic       float64

	// Fault state for this flood: the network's injector (nil on clean
	// runs), the per-flood loss nonce, and the hazard flag that gates
	// dead-letter checks (set when an injector is attached or crash
	// debris can leave dead peers in an adjacency). Senders pay for lost
	// messages — the delivery just never happens.
	inj         *fault.Injector
	nonce       uint64
	hazard      bool
	lost        int
	deadLetters int

	tracing bool
	hops    []Hop

	// Causal-trace sink: one "flood" ring per pooled kernel (kernels are
	// single-threaded, so the ring is never contended), re-acquired per
	// query when the tracer's enable generation moved. tguid is this
	// query's process-wide GUID; events carry it so the analyzer can
	// stitch per-query timelines out of interleaved floods.
	tring  *tracer.Ring
	tgen   uint64
	tguid  uint64
	tround int32
}

// heapKey orders in-flight messages by (arrival time, global send
// sequence) — a total order, so the pop sequence is unique regardless of
// heap shape and results stay bit-identical across heap rewrites.
type heapKey struct {
	at  time.Duration
	seq uint32
}

// flight is one scheduled message body, indexed by its key's seq.
// Populations stay far below 2³¹ peers and per-query sequence numbers
// below 2³². The serving tree lives in the launch table entry; toPos is
// the target's position within that launch's adjacency (-1 for blind
// copies).
type flight struct {
	to     int32
	from   int32
	toPos  int32
	launch int32
	ttl    int32
}

func keyLess(a, b heapKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type launchRef struct {
	adj     *core.TreeAdj
	covered *core.CoveredSet
	tree    overlay.PeerID
}

// arrivalState is one peer's per-query arrival record, valid when the
// peer's arrMark stamp equals the kernel's epoch. The hot per-delivery
// membership test reads only the 4-byte stamp array; the record itself
// is touched once per arrival.
type arrivalState struct {
	arrMS    float64
	pathCost float64
	back     overlay.PeerID
}

// queuedState is one peer's earliest queued arrival, valid when mark
// equals the kernel's epoch.
type queuedState struct {
	at   time.Duration
	mark uint32
}

// servedState is one peer's first served tree tag, valid when mark
// equals the kernel's epoch; extra tags spill into servedTrees.
type servedState struct {
	mark  uint32
	first overlay.PeerID
}

// Flight is one delivered query transmission. ToPos is the target's
// position within Adj (-1 for blind copies).
type Flight struct {
	At      time.Duration
	To      overlay.PeerID
	From    overlay.PeerID
	Serving overlay.PeerID
	ToPos   int32
	Adj     *core.TreeAdj
	Covered *core.CoveredSet
	TTL     int
}

// NewKernel returns an empty kernel. Callers that flood repeatedly
// should reuse it (or use AcquireKernel/ReleaseKernel) so the arenas
// amortize.
func NewKernel() *Kernel { return &Kernel{} }

// Packed-key layout: the low packSeqBits bits hold the send sequence,
// the rest the non-negative arrival time in nanoseconds — so the packed
// integer order IS the lexicographic (at, seq) order. Both ranges are
// far beyond any realistic flood (~1100 virtual seconds, 16M sends per
// query); a flood that exceeds either migrates once to the wide heap.
const (
	packSeqBits = 24
	packSeqMask = (1 << packSeqBits) - 1
	maxPackAt   = (uint64(1) << (64 - packSeqBits)) - 1
)

// The heap is 4-ary with hole-based sifting: half the tree depth of a
// binary heap, eight packed keys per cache line, and the displaced
// element is written exactly once instead of swapped at every level.
// pushFlight appends the payload and schedules its key; the returned
// seq of popFlight indexes k.pay.
func (k *Kernel) pushFlight(at time.Duration, f flight) {
	if q := &k.queued[f.to]; q.mark != k.epoch || at < q.at {
		*q = queuedState{at: at, mark: k.epoch}
	}
	seq := k.seq
	k.pay = append(k.pay, f)
	k.seq++
	if !k.wide {
		if uint64(at) <= maxPackAt && seq <= packSeqMask {
			key := uint64(at)<<packSeqBits | uint64(seq)
			h := append(k.heap, key)
			i := len(h) - 1
			for i > 0 {
				p := (i - 1) >> 2
				if key >= h[p] {
					break
				}
				h[i] = h[p]
				i = p
			}
			h[i] = key
			k.heap = h
			return
		}
		k.widen()
	}
	key := heapKey{at: at, seq: seq}
	h := append(k.wheap, key)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !keyLess(key, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = key
	k.wheap = h
}

// widen migrates the packed heap to the wide layout mid-flood. Unpacking
// is order-isomorphic, so the array keeps the heap property as is.
func (k *Kernel) widen() {
	if cap(k.wheap) < len(k.heap) {
		k.wheap = make([]heapKey, len(k.heap))
	}
	w := k.wheap[:len(k.heap)]
	for i, key := range k.heap {
		w[i] = heapKey{at: time.Duration(key >> packSeqBits), seq: uint32(key & packSeqMask)}
	}
	k.wheap = w
	k.heap = k.heap[:0]
	k.wide = true
}

func (k *Kernel) popFlight() heapKey {
	if k.wide {
		return k.popWide()
	}
	h := k.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	k.heap = h
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			var m int
			if c+4 <= n {
				// Full fan-out: a 2+2 tournament of single-word
				// compares, which the compiler lowers to conditional
				// moves — no data-dependent branches in the hot sift.
				m01 := c
				if h[c+1] < h[m01] {
					m01 = c + 1
				}
				m23 := c + 2
				if h[c+3] < h[m23] {
					m23 = c + 3
				}
				m = m01
				if h[m23] < h[m01] {
					m = m23
				}
			} else {
				m = c
				for j := c + 1; j < n; j++ {
					if h[j] < h[m] {
						m = j
					}
				}
			}
			if last <= h[m] {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return heapKey{at: time.Duration(top >> packSeqBits), seq: uint32(top & packSeqMask)}
}

func (k *Kernel) popWide() heapKey {
	h := k.wheap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	k.wheap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		e := c + 4
		if e > n {
			e = n
		}
		for j := c + 1; j < e; j++ {
			if keyLess(h[j], h[m]) {
				m = j
			}
		}
		if !keyLess(h[m], last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}

// queueLen reports the number of in-flight messages.
func (k *Kernel) queueLen() int { return len(k.heap) + len(k.wheap) }

var kernelPool = sync.Pool{New: func() any { return NewKernel() }}

// AcquireKernel takes a kernel from the shared pool.
func AcquireKernel() *Kernel {
	return kernelPool.Get().(*Kernel)
}

// ReleaseKernel returns a kernel to the shared pool.
func ReleaseKernel(k *Kernel) {
	k.net, k.fwd = nil, nil
	kernelPool.Put(k)
}

// Begin readies the kernel for one query over net with the given
// forwarder (which may be nil for engines that push raw transmissions).
// All per-query state from the previous flood is invalidated in O(1) via
// the epoch stamp; retained launch references are dropped.
func (k *Kernel) Begin(net *overlay.Network, fwd core.Forwarder, trace bool) {
	k.net, k.fwd = net, fwd
	n := net.N()
	if len(k.arr) < n {
		k.arrMark = make([]uint32, n)
		k.arr = make([]arrivalState, n)
		k.queued = make([]queuedState, n)
		k.served = make([]servedState, n)
		k.servedTrees = make([][]overlay.PeerID, n)
		k.respMark = make([]uint32, n)
		k.epoch = 0
	}
	k.epoch++
	if k.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(k.arrMark)
		clear(k.queued)
		clear(k.served)
		clear(k.respMark)
		k.epoch = 1
	}
	k.order = k.order[:0]
	k.heap = k.heap[:0]
	k.wheap = k.wheap[:0]
	k.wide = false
	k.pay = k.pay[:0]
	k.seq = 0
	for i := range k.launches {
		k.launches[i] = launchRef{} // release the trees of the last flood
	}
	k.launches = k.launches[:0]
	// A query boundary is a hard lifetime boundary for everything the
	// scratch arena handed to the previous flood, so recycle it.
	k.fsc.BeginQuery()
	k.scope, k.transmissions, k.duplicates, k.settled = 0, 0, 0, 0
	k.traffic = 0
	k.inj = net.Faults()
	k.nonce = 0
	k.hazard = k.inj != nil || net.Dangling() > 0
	k.lost, k.deadLetters = 0, 0
	k.tracing = trace
	k.hops = k.hops[:0]
	if tracer.On() {
		t := tracer.Default()
		if g := t.Gen(); g != k.tgen || k.tring == nil {
			k.tgen = g
			k.tring = t.NewRing("flood")
		}
		k.tguid = t.NextQueryID()
		k.tround = t.RoundSeq()
	} else {
		k.tring = nil
		k.tguid = 0
	}
}

// trace records one causal-trace event carrying this query's GUID; a
// no-op (one predicted branch) while tracing is off.
func (k *Kernel) trace(kind tracer.Kind, a, b int32, v float64) {
	if k.tring == nil {
		return
	}
	k.tring.Record(tracer.Event{
		TS: tracer.Default().Now(), GUID: k.tguid, Round: k.tround,
		Kind: kind, A: a, B: b, V: v,
	})
}

// Arrived reports whether p has received its first copy of the query.
func (k *Kernel) Arrived(p overlay.PeerID) bool { return k.arrMark[p] == k.epoch }

// Arrive records p's first copy, arriving from `from` (-1 for the
// source) at virtual time at. The cumulative inverse-path cost is
// memoized here — extending the sender's by one hop — so later hits
// answer ReturnTime in O(1) instead of re-walking the path.
func (k *Kernel) Arrive(p, from overlay.PeerID, at time.Duration) {
	k.arrMark[p] = k.epoch
	a := &k.arr[p]
	a.arrMS = float64(at) / msPerDur
	a.back = from
	if k.tring != nil {
		if from < 0 {
			k.trace(tracer.KindQueryBegin, int32(p), -1, 0)
		} else {
			k.trace(tracer.KindQueryArrive, int32(p), int32(from), a.arrMS)
		}
	}
	if from < 0 {
		a.pathCost = 0
		k.nonce = fault.Nonce(uint64(p)) // per-flood loss stream, from the source
	} else if cv, ok := k.net.CostsFromCached(p); ok {
		// Same vector Cost(p, from) would prefer — one lock-free load.
		a.pathCost = cv.To(from) + k.arr[from].pathCost
	} else {
		a.pathCost = k.net.Cost(p, from) + k.arr[from].pathCost
	}
	k.order = append(k.order, p)
	k.scope++
}

// Duplicate counts a delivery to an already-visited peer.
func (k *Kernel) Duplicate() { k.duplicates++ }

// notFirst reports whether a copy reaching p at virtual time at cannot be
// p's first: p has arrived, or a copy already queued for p lands no
// later and so pops before it.
func (k *Kernel) notFirst(p overlay.PeerID, at time.Duration) bool {
	if k.arrMark[p] == k.epoch {
		return true
	}
	q := k.queued[p]
	return q.mark == k.epoch && q.at <= at
}

// MarkResponders stamps the responder set into the kernel's dense
// mirror; call it once after Begin so IsResponder answers without a map
// probe. Marking is order-independent, so the map's iteration order
// cannot leak into results.
func (k *Kernel) MarkResponders(responders map[overlay.PeerID]bool) {
	for p, ok := range responders {
		if ok && int(p) < len(k.respMark) {
			k.respMark[p] = k.epoch
		}
	}
}

// IsResponder reports whether p was marked by MarkResponders.
func (k *Kernel) IsResponder(p overlay.PeerID) bool { return k.respMark[p] == k.epoch }

// ArrivalMS returns p's arrival time in milliseconds (0 when not
// arrived).
func (k *Kernel) ArrivalMS(p overlay.PeerID) float64 {
	if !k.Arrived(p) {
		return 0
	}
	return k.arr[p].arrMS
}

// ReturnTime returns the memoized cost of the inverse query path from p
// back to the source (+Inf when p was never reached).
func (k *Kernel) ReturnTime(p overlay.PeerID) float64 {
	if !k.Arrived(p) {
		return math.Inf(1)
	}
	return k.arr[p].pathCost
}

// Back returns the peer p received its first copy from, reporting false
// for the source (which has no inverse hop) and unreached peers.
func (k *Kernel) Back(p overlay.PeerID) (overlay.PeerID, bool) {
	if !k.Arrived(p) || k.arr[p].back < 0 {
		return -1, false
	}
	return k.arr[p].back, true
}

// Served reports whether p has already forwarded tree's tag this query.
// Evaluators use it to skip the forwarder entirely on duplicate
// deliveries whose continuation Emit would drop anyway — the sends are
// never computed instead of computed and discarded.
func (k *Kernel) Served(p, tree overlay.PeerID) bool { return k.servedHas(p, tree) }

func (k *Kernel) servedHas(p, tree overlay.PeerID) bool {
	sv := k.served[p]
	if sv.mark != k.epoch {
		return false
	}
	if sv.first == tree {
		return true
	}
	for _, t := range k.servedTrees[p] {
		if t == tree {
			return true
		}
	}
	return false
}

func (k *Kernel) servedAdd(p, tree overlay.PeerID) {
	sv := &k.served[p]
	if sv.mark != k.epoch {
		sv.mark = k.epoch
		sv.first = tree
		k.servedTrees[p] = k.servedTrees[p][:0]
		return
	}
	if !k.servedHas(p, tree) {
		k.servedTrees[p] = append(k.servedTrees[p], tree)
	}
}

// ForwardOf asks the forwarder for p's transmissions through the
// kernel's scratch. The returned slice is reused by the next call —
// consume it before then.
func (k *Kernel) ForwardOf(src, p, from, serving overlay.PeerID, adj *core.TreeAdj, pPos int32, covered *core.CoveredSet, first bool) []core.Send {
	k.sends = k.fwd.ForwardInto(&k.fsc, k.sends[:0], src, p, from, serving, adj, pPos, covered, first)
	return k.sends
}

// Emit sends a forward batch from `from` at virtual time at, enforcing
// the per-(peer, tree) continuation dedup, accounting traffic, and
// scheduling each delivery after its link's physical delay.
// Sends of one tree form a contiguous run and distinct runs in one batch
// carry distinct trees (a forwarder emits at most one continuation run
// plus one launch run, and a peer never launches the tree it is
// continuing), so the dedup check, the launch-table entry, and the served
// mark each happen once per run rather than once per send.
//
// A copy whose delivery could only bump a counter is settled here
// instead of queued: a copy to a dead target on a hazardous flood is
// counted as a dead letter, and a copy that cannot be its target's first
// and would relay nothing as a duplicate — it is blind or its TTL is
// spent (duplicates relay only tree continuations), or its target is a
// dead end of the carried tree (core.TreeAdj.DeadEnd). Traffic, the
// fault decisions and the hop trace are accounted before that point, and
// the queued copies keep their relative order, so a flood's results are
// those of delivering every copy. Drivers therefore drop no dead letters
// themselves, count each popped copy to an arrived peer as a Duplicate,
// and relay a duplicate only along the continuation of an unserved tag
// while TTL remains.
func (k *Kernel) Emit(at time.Duration, from overlay.PeerID, sends []core.Send, ttl int) {
	// One cached-vector view prices the whole batch from this sender;
	// the fallback keeps bit-identical values when the vector is cold.
	cv, cvOK := overlay.CostView{}, false
	if len(sends) > 0 {
		cv, cvOK = k.net.CostsFromCached(from)
	}
	tx0 := k.transmissions
	for i := 0; i < len(sends); {
		tree := sends[i].Tree
		if tree != core.NoTree && k.servedHas(from, tree) {
			for i++; i < len(sends) && sends[i].Tree == tree; i++ {
			}
			continue
		}
		idx := int32(-1)
		adj := sends[i].Adj
		if tree != core.NoTree {
			k.launches = append(k.launches, launchRef{adj: adj, covered: sends[i].Covered, tree: tree})
			idx = int32(len(k.launches) - 1)
		}
		// Whether a duplicate of this run could relay anything; a tagged
		// one still needs its target to be more than a dead end.
		relays := ttl > 0 && tree != core.NoTree && adj != nil
		for ; i < len(sends) && sends[i].Tree == tree; i++ {
			s := &sends[i]
			var c float64
			switch {
			case s.Cost >= 0:
				// Memoized sender-side edge delay — same float the view
				// lookup would produce, without touching the vector.
				c = float64(s.Cost)
			case cvOK:
				c = cv.To(s.To)
			default:
				c = k.net.Cost(from, s.To)
			}
			k.traffic += c
			k.transmissions++
			if k.tracing {
				k.hops = append(k.hops, Hop{From: from, To: s.To, Cost: c, SentAt: float64(at) / msPerDur})
			}
			if k.inj != nil {
				// The sender already paid for the transmission; a lost
				// message is simply never delivered, and a delivered one
				// may arrive off its nominal delay.
				seq := uint32(k.transmissions)
				if k.inj.DropMessage(k.nonce, int(from), int(s.To), seq) {
					k.lost++
					if k.tring != nil {
						k.trace(tracer.KindQueryDrop, int32(from), int32(s.To), float64(at)/msPerDur)
					}
					continue
				}
				c = k.inj.TransitDelay(c, k.nonce, int(from), int(s.To), seq)
			}
			arrive := at + delayDur(c)
			if k.hazard && !k.net.Alive(s.To) {
				// Crash debris: the target died, the copy is lost.
				k.deadLetters++
				k.settled++
				continue
			}
			if (!relays || s.ToPos >= 0 && adj.DeadEnd(s.ToPos, from)) && k.notFirst(s.To, arrive) {
				k.duplicates++
				k.settled++
				continue
			}
			k.pushFlight(arrive, flight{to: int32(s.To), from: int32(from), toPos: s.ToPos, launch: idx, ttl: int32(ttl)})
		}
		if tree != core.NoTree {
			k.servedAdd(from, tree)
		}
	}
	if k.tring != nil {
		if sent := k.transmissions - tx0; sent > 0 {
			k.trace(tracer.KindQueryForward, int32(from), int32(sent), float64(at)/msPerDur)
		}
	}
}

// Push schedules one raw tree-less transmission at absolute virtual time
// at, without cost accounting — for engines (HPF) that do their own.
func (k *Kernel) Push(at time.Duration, from, to overlay.PeerID, ttl int) {
	k.pushFlight(at, flight{to: int32(to), from: int32(from), toPos: -1, launch: -1, ttl: int32(ttl)})
}

// Next pops the earliest in-flight transmission, reporting false when
// the flood has drained.
func (k *Kernel) Next() (Flight, bool) {
	if k.queueLen() == 0 {
		return Flight{}, false
	}
	key := k.popFlight()
	m := &k.pay[key.seq]
	f := Flight{At: key.at, To: overlay.PeerID(m.to), From: overlay.PeerID(m.from), Serving: core.NoTree, ToPos: m.toPos, TTL: int(m.ttl)}
	if m.launch >= 0 {
		l := &k.launches[m.launch]
		f.Serving, f.Adj, f.Covered = l.tree, l.adj, l.covered
	}
	return f, true
}

// Result reads the drained flood out as a QueryResult: every tally the
// kernel keeps (scope, traffic, transmissions, duplicates, lost
// messages, dead letters), the arrival map and the trace GUID, with
// first as the driver's first-response time. Evaluate and cache.Evaluate
// both read their results here, so no tally can go missing from one.
func (k *Kernel) Result(first float64) QueryResult {
	return QueryResult{
		Scope:         k.scope,
		TrafficCost:   k.traffic,
		Transmissions: k.transmissions,
		Duplicates:    k.duplicates,
		FirstResponse: first,
		Lost:          k.lost,
		DeadLetters:   k.deadLetters,
		Arrival:       k.ArrivalMap(),
		TraceGUID:     k.tguid,
	}
}

// ArrivalMap materializes the public Arrival map from the dense arrays.
func (k *Kernel) ArrivalMap() map[overlay.PeerID]float64 {
	m := make(map[overlay.PeerID]float64, len(k.order))
	for _, p := range k.order {
		m[p] = k.arr[p].arrMS
	}
	return m
}
