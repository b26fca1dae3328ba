package core

import (
	"testing"

	"ace/internal/overlay"
	"ace/internal/sim"
)

// floodScope runs the tree-forwarding propagation (the same rules the
// gnutella flood kernel applies: first-copy bookkeeping, per-(peer,tree)
// continuation dedup) and returns the set of peers reached from src.
// It lives here rather than importing gnutella to avoid an import cycle.
func floodScope(o *Optimizer, src overlay.PeerID) map[overlay.PeerID]bool {
	fwd := TreeForwarding{Opt: o}
	var sc FloodScratch
	type msg struct {
		to, from, serving overlay.PeerID
		toPos             int32
		adj               *TreeAdj
		covered           *CoveredSet
	}
	visited := map[overlay.PeerID]bool{src: true}
	served := map[[2]overlay.PeerID]bool{}
	var queue []msg
	emit := func(p overlay.PeerID, sends []Send) {
		for _, s := range sends {
			if s.Tree != NoTree && served[[2]overlay.PeerID{p, s.Tree}] {
				continue
			}
			queue = append(queue, msg{to: s.To, from: p, serving: s.Tree, toPos: s.ToPos, adj: s.Adj, covered: s.Covered})
		}
		for _, s := range sends {
			if s.Tree != NoTree {
				served[[2]overlay.PeerID{p, s.Tree}] = true
			}
		}
	}
	emit(src, fwd.ForwardInto(&sc, nil, src, src, -1, NoTree, nil, -1, nil, true))
	for len(queue) > 0 {
		m := queue[0]
		queue = queue[1:]
		first := !visited[m.to]
		visited[m.to] = true
		emit(m.to, fwd.ForwardInto(&sc, nil, src, m.to, m.from, m.serving, m.adj, m.toPos, m.covered, first))
	}
	return visited
}

// TestTreeForwardingScopeCompleteProperty is the reproduction's central
// invariant: on a static network, ACE tree forwarding reaches every peer
// blind flooding reaches — "while retaining the search scope" — for
// every closure depth, before and after Phase-3 rewiring.
func TestTreeForwardingScopeCompleteProperty(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, h := range []int{1, 2, 3} {
			net := randomNet(t, seed, 400, 180, 6)
			o, err := NewOptimizer(net, DefaultConfig(h))
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(seed * 7)
			for round := 0; round <= 4; round += 4 {
				for i := 0; i < round; i++ {
					o.Round(rng)
				}
				o.RebuildTrees()
				for _, src := range []overlay.PeerID{0, 179} {
					reached := floodScope(o, src)
					if len(reached) != net.NumAlive() {
						t.Fatalf("seed=%d h=%d rounds=%d src=%d: scope %d of %d",
							seed, h, round, src, len(reached), net.NumAlive())
					}
				}
			}
		}
	}
}

// TestTreeForwardingScopeSurvivesLeaves checks the splice: peers leaving
// after the exchange must not sever the multicast.
func TestTreeForwardingScopeSurvivesLeaves(t *testing.T) {
	net := randomNet(t, 9, 400, 180, 8)
	o, err := NewOptimizer(net, DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(10)
	for i := 0; i < 4; i++ {
		o.Round(rng)
	}
	o.RebuildTrees()
	// A tenth of the population leaves without any new exchange.
	alive := net.AlivePeers()
	for i := 0; i < len(alive)/10; i++ {
		net.Leave(alive[i*10])
	}
	reached := floodScope(o, alive[1])
	// Stale covered-set claims can miss a few peers whose only cheap
	// path ran through the departed; require >= 95% coverage, matching
	// the dynamic experiments.
	if float64(len(reached)) < 0.95*float64(net.NumAlive()) {
		t.Fatalf("post-churn scope %d of %d", len(reached), net.NumAlive())
	}
}
