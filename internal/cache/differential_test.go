package cache

import (
	"container/heap"
	"math"
	"testing"
	"time"

	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/gnutella"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// The retired map-based cache evaluator, kept as the reference the
// kernel-backed Evaluate must match bit for bit (including the store
// mutations it leaves behind). Its only change since retirement: copies
// carry their Send.ToPos into the forwarder, which takes it as p's tree
// position.

type refHop struct {
	at      time.Duration
	seq     uint64
	to      overlay.PeerID
	from    overlay.PeerID
	serving overlay.PeerID
	toPos   int32
	adj     *core.TreeAdj
	covered *core.CoveredSet
	ttl     int
}

type refHopHeap []refHop

func (h refHopHeap) Len() int { return len(h) }
func (h refHopHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHopHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHopHeap) Push(x any)   { *h = append(*h, x.(refHop)) }
func (h *refHopHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

const refMSPerDur = float64(time.Millisecond)

func referenceCacheEvaluate(net *overlay.Network, fwd core.Forwarder, src overlay.PeerID, ttl, keyword int, holds func(overlay.PeerID, int) bool, store *Store) Result {
	res := Result{QueryResult: gnutella.QueryResult{
		Arrival:       map[overlay.PeerID]float64{src: 0},
		FirstResponse: math.Inf(1),
	}}
	if !net.Alive(src) {
		res.Arrival = nil
		return res
	}
	res.Scope = 1

	var answerer, target overlay.PeerID = -1, -1
	back := map[overlay.PeerID]overlay.PeerID{}
	returnTime := func(p overlay.PeerID) float64 {
		total := 0.0
		for p != src {
			prev, ok := back[p]
			if !ok {
				return math.Inf(1)
			}
			total += net.Cost(p, prev)
			p = prev
		}
		return total
	}
	answer := func(p overlay.PeerID, atMS float64, holder overlay.PeerID) {
		if rt := atMS + returnTime(p); rt < res.FirstResponse {
			res.FirstResponse = rt
			answerer, target = p, holder
		}
	}

	if holds(src, keyword) {
		answer(src, 0, src)
	} else if r, ok := store.Of(src).Get(keyword); ok {
		if net.Alive(r) {
			res.CacheHits++
			answer(src, 0, r)
		} else {
			store.Of(src).Invalidate(keyword)
			res.StaleHits++
		}
	}

	var sc core.FloodScratch // never rewound: every launch gets fresh memory
	var q refHopHeap
	var seq uint64
	served := map[uint64]bool{}
	key := func(p, tree overlay.PeerID) uint64 {
		return uint64(uint32(p))<<32 | uint64(uint32(tree))
	}
	send := func(at time.Duration, from overlay.PeerID, s core.Send, ttl int) {
		c := net.Cost(from, s.To)
		res.TrafficCost += c
		res.Transmissions++
		heap.Push(&q, refHop{at: at + time.Duration(c*refMSPerDur), seq: seq, to: s.To, from: from, serving: s.Tree, toPos: s.ToPos, adj: s.Adj, covered: s.Covered, ttl: ttl})
		seq++
	}
	emit := func(at time.Duration, p overlay.PeerID, sends []core.Send, ttl int) {
		for _, s := range sends {
			if s.Tree != core.NoTree && served[key(p, s.Tree)] {
				continue
			}
			send(at, p, s, ttl)
		}
		for _, s := range sends {
			if s.Tree != core.NoTree {
				served[key(p, s.Tree)] = true
			}
		}
	}
	if ttl > 0 {
		emit(0, src, fwd.ForwardInto(&sc, nil, src, src, -1, core.NoTree, nil, -1, nil, true), ttl-1)
	}
	for len(q) > 0 {
		m := heap.Pop(&q).(refHop)
		first := false
		atMS := float64(m.at) / refMSPerDur
		if _, seen := res.Arrival[m.to]; seen {
			res.Duplicates++
		} else {
			first = true
			res.Arrival[m.to] = atMS
			back[m.to] = m.from
			res.Scope++
		}

		forward := true
		if first {
			switch {
			case holds(m.to, keyword):
				answer(m.to, atMS, m.to)
			default:
				if r, ok := store.Of(m.to).Get(keyword); ok {
					if net.Alive(r) {
						res.CacheHits++
						answer(m.to, atMS, r)
						forward = false
					} else {
						store.Of(m.to).Invalidate(keyword)
						res.StaleHits++
					}
				}
			}
		}
		if !forward || m.ttl <= 0 {
			continue
		}
		emit(m.at, m.to, fwd.ForwardInto(&sc, nil, src, m.to, m.from, m.serving, m.adj, m.toPos, m.covered, first), m.ttl-1)
	}

	if answerer >= 0 && target >= 0 {
		for p := answerer; ; {
			if p != target {
				store.Of(p).Put(keyword, target)
			}
			prev, ok := back[p]
			if !ok || p == src {
				break
			}
			p = prev
		}
	}
	return res
}

// diffCacheNet builds the experiments' substrate (BA physical topology,
// small-world overlay) plus rebuilt trees for tree forwarding.
func diffCacheNet(t *testing.T, seed int64, h int) (*overlay.Network, *core.Optimizer) {
	t.Helper()
	rng := sim.NewRNG(seed)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(450))
	if err != nil {
		t.Fatal(err)
	}
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), 450, 150)
	if err != nil {
		t.Fatal(err)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := overlay.GenerateSmallWorld(rng.Derive("overlay"), net, 6, 0.6); err != nil {
		t.Fatal(err)
	}
	opt, err := core.NewOptimizer(net, core.DefaultConfig(h))
	if err != nil {
		t.Fatal(err)
	}
	opt.RebuildTrees()
	return net, opt
}

func cacheResultsIdentical(t *testing.T, tag string, got, want Result) {
	t.Helper()
	if got.CacheHits != want.CacheHits || got.StaleHits != want.StaleHits {
		t.Fatalf("%s: cache counters got {hits %d stale %d}, want {hits %d stale %d}",
			tag, got.CacheHits, got.StaleHits, want.CacheHits, want.StaleHits)
	}
	if got.Scope != want.Scope || got.Transmissions != want.Transmissions || got.Duplicates != want.Duplicates {
		t.Fatalf("%s: counts got {scope %d tx %d dup %d}, want {scope %d tx %d dup %d}",
			tag, got.Scope, got.Transmissions, got.Duplicates, want.Scope, want.Transmissions, want.Duplicates)
	}
	if got.Lost != want.Lost || got.DeadLetters != want.DeadLetters {
		t.Fatalf("%s: lost %d dead letters %d, want lost %d dead letters %d",
			tag, got.Lost, got.DeadLetters, want.Lost, want.DeadLetters)
	}
	if got.TrafficCost != want.TrafficCost {
		t.Fatalf("%s: traffic %v != %v", tag, got.TrafficCost, want.TrafficCost)
	}
	if got.FirstResponse != want.FirstResponse {
		t.Fatalf("%s: first-response %v != %v", tag, got.FirstResponse, want.FirstResponse)
	}
	if len(got.Arrival) != len(want.Arrival) {
		t.Fatalf("%s: arrival sizes %d != %d", tag, len(got.Arrival), len(want.Arrival))
	}
	for p, at := range want.Arrival {
		if g, ok := got.Arrival[p]; !ok || g != at {
			t.Fatalf("%s: arrival[%d] = %v,%v, want %v", tag, p, g, ok, at)
		}
	}
}

func storesIdentical(t *testing.T, tag string, got, want *Store, n int) {
	t.Helper()
	for p := 0; p < n; p++ {
		gi, wi := got.Peek(overlay.PeerID(p)), want.Peek(overlay.PeerID(p))
		if (gi == nil) != (wi == nil) {
			t.Fatalf("%s: peer %d index presence differs", tag, p)
		}
		if gi == nil {
			continue
		}
		if gi.Len() != wi.Len() {
			t.Fatalf("%s: peer %d index sizes %d != %d", tag, p, gi.Len(), wi.Len())
		}
	}
}

// TestCacheEvaluateMatchesReference runs warm-up and follow-up queries
// through the kernel-backed Evaluate and the retired map-based evaluator
// on separate stores, requiring bit-identical results and equivalent
// store contents — the caching layer's behavior must survive the move
// onto the shared flood kernel exactly.
func TestCacheEvaluateMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, h := range []int{1, 2} {
			net, opt := diffCacheNet(t, seed, h)
			alive := net.AlivePeers()
			holder := alive[len(alive)/2]
			holds := func(p overlay.PeerID, kw int) bool { return p == holder && kw == 7 }
			for name, fwd := range map[string]core.Forwarder{
				"blind": core.BlindFlooding{Net: net},
				"tree":  core.TreeForwarding{Opt: opt},
			} {
				gotStore, wantStore := NewStore(8), NewStore(8)
				rng := sim.NewRNG(seed * 13)
				for q := 0; q < 6; q++ {
					src := alive[rng.Intn(len(alive))]
					got := Evaluate(net, fwd, src, gnutella.DefaultTTL, 7, holds, gotStore)
					want := referenceCacheEvaluate(net, fwd, src, gnutella.DefaultTTL, 7, holds, wantStore)
					cacheResultsIdentical(t, name, got, want)
				}
				storesIdentical(t, name, gotStore, wantStore, net.N())
			}
		}
	}
}

// TestCacheEvaluateMatchesReferenceStale repeats the comparison with a
// dying cached responder, covering the invalidation path and dead-peer
// splices in one sweep.
func TestCacheEvaluateMatchesReferenceStale(t *testing.T) {
	net, opt := diffCacheNet(t, 3, 1)
	alive := net.AlivePeers()
	holder := alive[len(alive)/3]
	holds := func(p overlay.PeerID, kw int) bool { return p == holder && kw == 7 }
	fwd := core.TreeForwarding{Opt: opt}
	gotStore, wantStore := NewStore(8), NewStore(8)

	// Warm both stores, kill the holder, then query again: every cached
	// entry pointing at it must invalidate identically.
	src := alive[0]
	cacheResultsIdentical(t, "warm",
		Evaluate(net, fwd, src, gnutella.DefaultTTL, 7, holds, gotStore),
		referenceCacheEvaluate(net, fwd, src, gnutella.DefaultTTL, 7, holds, wantStore))
	net.Leave(holder)
	for q := 0; q < 4; q++ {
		src := alive[(q*17+1)%len(alive)]
		if !net.Alive(src) {
			continue
		}
		got := Evaluate(net, fwd, src, gnutella.DefaultTTL, 7, func(overlay.PeerID, int) bool { return false }, gotStore)
		want := referenceCacheEvaluate(net, fwd, src, gnutella.DefaultTTL, 7, func(overlay.PeerID, int) bool { return false }, wantStore)
		cacheResultsIdentical(t, "stale", got, want)
	}
	storesIdentical(t, "stale", gotStore, wantStore, net.N())
}

// TestEvaluateMatchesGnutellaUnderFaults floods lossy and crash-debris
// networks through the cache layer with an empty store and no holder,
// where it must report exactly what the plain flood reports, its fault
// tallies included.
func TestEvaluateMatchesGnutellaUnderFaults(t *testing.T) {
	noHolder := func(overlay.PeerID, int) bool { return false }
	for _, c := range []struct {
		name  string
		loss  float64
		crash bool
	}{{"loss", 0.2, false}, {"crash-debris", 0, true}, {"crash-debris+loss", 0.2, true}} {
		net, opt := diffCacheNet(t, 1, 1)
		if c.loss > 0 {
			inj, err := fault.NewInjector(fault.Plan{Seed: 5, LossRate: c.loss})
			if err != nil {
				t.Fatal(err)
			}
			net.SetFaults(inj)
		}
		if c.crash {
			alive := net.AlivePeers()
			for i := 0; i < len(alive); i += 10 {
				net.Crash(alive[i])
			}
		}
		alive := net.AlivePeers()
		var lost, dead int
		for _, f := range []struct {
			name string
			fwd  core.Forwarder
		}{{"blind", core.BlindFlooding{Net: net}}, {"tree", core.TreeForwarding{Opt: opt}}} {
			for _, src := range []overlay.PeerID{alive[0], alive[len(alive)/2]} {
				got := Evaluate(net, f.fwd, src, gnutella.DefaultTTL, 7, noHolder, NewStore(8))
				want := gnutella.Evaluate(net, f.fwd, src, gnutella.DefaultTTL, nil)
				cacheResultsIdentical(t, c.name+"/"+f.name, got, Result{QueryResult: want})
				lost += want.Lost
				dead += want.DeadLetters
			}
		}
		if (c.loss > 0) != (lost > 0) || c.crash != (dead > 0) {
			t.Fatalf("%s: %d lost and %d dead letters do not match the fault set-up", c.name, lost, dead)
		}
	}
}
