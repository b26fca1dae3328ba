package gnutella

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
	"time"

	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// referenceEvaluate is the map-based evaluator this repository shipped
// before the flat kernel, kept as the semantic oracle: per-query state in
// fresh maps, a container/heap event queue that every copy goes through,
// and returnTime re-walking the inverse path on every hit. It carries the
// kernel's fault semantics in their plainest form: the sender pays for
// every send, the network's injector drops or jitters a send keyed by the
// source's fault.Nonce and the flood's running transmission count, and a
// copy popped for a dead target is a dead letter when the network has an
// injector or crash debris. The flat kernel must reproduce its
// QueryResult bit for bit.

type refInflight struct {
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

type refHeap []refInflight

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refInflight)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// treeKey packs a (peer, tree) pair for the per-tree continuation dedup.
func treeKey(p, tree overlay.PeerID) uint64 {
	return uint64(uint32(p))<<32 | uint64(uint32(tree))
}

func referenceEvaluate(net *overlay.Network, fwd core.Forwarder, src overlay.PeerID, ttl int, responders map[overlay.PeerID]bool) QueryResult {
	res := QueryResult{
		Arrival:       map[overlay.PeerID]float64{src: 0},
		FirstResponse: math.Inf(1),
	}
	if !net.Alive(src) {
		res.Arrival = nil
		return res
	}
	res.Scope = 1
	if responders[src] {
		res.FirstResponse = 0
	}
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

	var sc core.FloodScratch // never rewound: every launch gets fresh memory
	inj := net.Faults()
	hazard := inj != nil || net.Dangling() > 0
	nonce := fault.Nonce(uint64(src))
	var q refHeap
	var seq uint64
	served := map[uint64]bool{}
	send := func(at time.Duration, from overlay.PeerID, s core.Send, ttl int) {
		c := net.Cost(from, s.To)
		res.TrafficCost += c
		res.Transmissions++
		if inj != nil {
			tx := uint32(res.Transmissions)
			if inj.DropMessage(nonce, int(from), int(s.To), tx) {
				res.Lost++
				return
			}
			c = inj.TransitDelay(c, nonce, int(from), int(s.To), tx)
		}
		heap.Push(&q, refInflight{at: at + delayDur(c), seq: seq, to: s.To, from: from, serving: s.Tree, toPos: s.ToPos, adj: s.Adj, covered: s.Covered, ttl: ttl})
		seq++
	}
	emit := func(at time.Duration, p overlay.PeerID, sends []core.Send, ttl int) {
		for _, s := range sends {
			if s.Tree != core.NoTree && served[treeKey(p, s.Tree)] {
				continue
			}
			send(at, p, s, ttl)
		}
		for _, s := range sends {
			if s.Tree != core.NoTree {
				served[treeKey(p, s.Tree)] = true
			}
		}
	}

	if ttl > 0 {
		emit(0, src, fwd.ForwardInto(&sc, nil, src, src, -1, core.NoTree, nil, -1, nil, true), ttl-1)
	}
	for len(q) > 0 {
		m := heap.Pop(&q).(refInflight)
		if hazard && !net.Alive(m.to) {
			res.DeadLetters++
			continue
		}
		_, seen := res.Arrival[m.to]
		if seen {
			res.Duplicates++
		} else {
			res.Arrival[m.to] = float64(m.at) / msPerDur
			res.Scope++
			back[m.to] = m.from
			if responders[m.to] {
				if rt := float64(m.at)/msPerDur + returnTime(m.to); rt < res.FirstResponse {
					res.FirstResponse = rt
				}
			}
		}
		if m.ttl <= 0 {
			continue
		}
		emit(m.at, m.to, fwd.ForwardInto(&sc, nil, src, m.to, m.from, m.serving, m.adj, m.toPos, m.covered, !seen), m.ttl-1)
	}
	return res
}

// queryResultsIdentical compares two QueryResults bit for bit, including
// the full arrival map (+Inf FirstResponse compares equal to itself).
func queryResultsIdentical(t *testing.T, tag string, got, want QueryResult) {
	t.Helper()
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
		g, ok := got.Arrival[p]
		if !ok || g != at {
			t.Fatalf("%s: arrival[%d] = %v,%v, want %v", tag, p, g, ok, at)
		}
	}
}

// TestEvaluateMatchesReference floods the same queries through the flat
// kernel and the retired map-based evaluator across seeds, forwarders and
// closure depths, requiring bit-identical QueryResults — scope, traffic,
// duplicates, first-response, and every arrival time.
func TestEvaluateMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, h := range []int{1, 2} {
			net, opt := diffNet(t, seed, h)
			forwarders := map[string]core.Forwarder{
				"blind": core.BlindFlooding{Net: net},
				"tree":  core.TreeForwarding{Opt: opt},
			}
			rng := sim.NewRNG(seed * 31)
			alive := net.AlivePeers()
			for name, fwd := range forwarders {
				for q := 0; q < 8; q++ {
					src := alive[rng.Intn(len(alive))]
					responders := map[overlay.PeerID]bool{}
					for len(responders) < 3 {
						responders[alive[rng.Intn(len(alive))]] = true
					}
					ttl := 1 << 20
					if q%3 == 1 {
						ttl = 2 // exercise the TTL frontier
					}
					tag := name
					got := Evaluate(net, fwd, src, ttl, responders)
					want := referenceEvaluate(net, fwd, src, ttl, responders)
					queryResultsIdentical(t, tag, got, want)
				}
			}
		}
	}
}

// TestEvaluateMatchesReferenceAfterChurn repeats the comparison after a
// tenth of the population leaves without a rebuild, so tree forwarding
// exercises the dead-peer splice paths.
func TestEvaluateMatchesReferenceAfterChurn(t *testing.T) {
	for _, seed := range []int64{4, 5} {
		net, opt := diffNet(t, seed, 1)
		alive := net.AlivePeers()
		for i := 0; i < len(alive)/10; i++ {
			net.Leave(alive[i*10])
		}
		alive = net.AlivePeers()
		rng := sim.NewRNG(seed)
		for name, fwd := range map[string]core.Forwarder{
			"blind": core.BlindFlooding{Net: net},
			"tree":  core.TreeForwarding{Opt: opt},
		} {
			for q := 0; q < 6; q++ {
				src := alive[rng.Intn(len(alive))]
				responders := map[overlay.PeerID]bool{alive[rng.Intn(len(alive))]: true}
				got := Evaluate(net, fwd, src, 1<<20, responders)
				want := referenceEvaluate(net, fwd, src, 1<<20, responders)
				queryResultsIdentical(t, name+"-churn", got, want)
			}
		}
		// A dead source must yield the same empty result.
		dead := overlay.PeerID(-1)
		for p := 0; p < net.N(); p++ {
			if !net.Alive(overlay.PeerID(p)) {
				dead = overlay.PeerID(p)
				break
			}
		}
		if dead >= 0 {
			got := Evaluate(net, core.TreeForwarding{Opt: opt}, dead, 8, nil)
			want := referenceEvaluate(net, core.TreeForwarding{Opt: opt}, dead, 8, nil)
			queryResultsIdentical(t, "dead-src", got, want)
		}
	}
}

// TestEvaluateMatchesReferenceUnderFaults extends the comparison to
// faulty floods: 5% message loss with delay jitter, crash debris left in
// adjacencies and trees by crashes without a rebuild, and TTL frontiers
// at depth 2. The reference delivers every copy, so each copy the kernel
// counts at send time instead — a dead letter, a duplicate whose TTL is
// spent, a blind duplicate, a duplicate reaching a dead end of its tree —
// is checked against an actual delivery, and so is the order of the
// copies it still queues.
func TestEvaluateMatchesReferenceUnderFaults(t *testing.T) {
	lossy := &fault.Plan{Seed: 17, LossRate: 0.05, DelayJitter: 0.2}
	cases := []struct {
		name  string
		seed  int64
		h     int
		plan  *fault.Plan
		crash bool
		ttls  []int
	}{
		{"loss+jitter/h1", 6, 1, lossy, false, []int{1 << 20, 3}},
		{"loss+jitter/h2", 7, 2, lossy, false, []int{1 << 20, 2}},
		{"crash-debris/h1", 8, 1, nil, true, []int{1 << 20, 3}},
		{"crash-debris+loss/h2", 9, 2, lossy, true, []int{1 << 20}},
		{"ttl-frontier/h2", 10, 2, nil, false, []int{1, 2, 3, 4}},
	}
	for _, c := range cases {
		net, opt := diffNet(t, c.seed, c.h)
		if c.plan != nil {
			net.SetFaults(lossyInjector(t, *c.plan))
		}
		if c.crash {
			alive := net.AlivePeers()
			for i := 0; i < len(alive); i += 10 {
				net.Crash(alive[i])
			}
			if net.Dangling() == 0 {
				t.Fatalf("%s: crashes left no debris", c.name)
			}
		}
		alive := net.AlivePeers()
		rng := sim.NewRNG(c.seed * 13)
		var lost, dead int
		for _, f := range []struct {
			name string
			fwd  core.Forwarder
		}{{"blind", core.BlindFlooding{Net: net}}, {"tree", core.TreeForwarding{Opt: opt}}} {
			for _, ttl := range c.ttls {
				for q := 0; q < 6; q++ {
					src := alive[rng.Intn(len(alive))]
					responders := map[overlay.PeerID]bool{}
					for len(responders) < 3 {
						responders[alive[rng.Intn(len(alive))]] = true
					}
					want := referenceEvaluate(net, f.fwd, src, ttl, responders)
					got := Evaluate(net, f.fwd, src, ttl, responders)
					queryResultsIdentical(t, fmt.Sprintf("%s/%s/ttl%d", c.name, f.name, ttl), got, want)
					lost += want.Lost
					dead += want.DeadLetters
				}
			}
		}
		if (c.plan != nil) != (lost > 0) || c.crash != (dead > 0) {
			t.Fatalf("%s: %d lost and %d dead letters do not match the fault set-up", c.name, lost, dead)
		}
	}
}

// randomBenchNet builds a BA physical topology with a small-world
// overlay on top, the same substrate the experiments use.
func randomBenchNet(t *testing.T, seed int64, physN, peers, deg int) *overlay.Network {
	t.Helper()
	rng := sim.NewRNG(seed)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(physN))
	if err != nil {
		t.Fatal(err)
	}
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), physN, peers)
	if err != nil {
		t.Fatal(err)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := overlay.GenerateSmallWorld(rng.Derive("overlay"), net, deg, 0.6); err != nil {
		t.Fatal(err)
	}
	return net
}

// diffNet builds a small optimized environment for the differential
// tests: a few optimizer rounds roughen the overlay so launches, the
// election, and covered-set chains are all exercised.
func diffNet(t *testing.T, seed int64, h int) (*overlay.Network, *core.Optimizer) {
	t.Helper()
	net := randomBenchNet(t, seed, 600, 200, 6)
	opt, err := core.NewOptimizer(net, core.DefaultConfig(h))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed * 7)
	for i := 0; i < 3; i++ {
		opt.Round(rng)
	}
	opt.RebuildTrees()
	return net, opt
}
