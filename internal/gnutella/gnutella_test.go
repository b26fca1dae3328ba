package gnutella

import (
	"math"
	"testing"

	"ace/internal/core"
	"ace/internal/graph"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// lineNet attaches peers to a physical line so Cost(p,q) =
// |attach(p)−attach(q)|.
func lineNet(t *testing.T, attach []int) *overlay.Network {
	t.Helper()
	maxNode := 0
	for _, a := range attach {
		if a > maxNode {
			maxNode = a
		}
	}
	g := graph.New(maxNode + 1)
	for i := 0; i < maxNode; i++ {
		g.AddEdge(i, i+1, 1)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(g), attach)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(0)
	for p := 0; p < net.N(); p++ {
		net.Join(rng, overlay.PeerID(p), 0)
	}
	return net
}

func TestEvaluateChain(t *testing.T) {
	// Overlay chain 0-1-2-3 on positions 0,1,2,3: every hop costs 1.
	net := lineNet(t, []int{0, 1, 2, 3})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(2, 3)
	fwd := core.BlindFlooding{Net: net}
	res := Evaluate(net, fwd, 0, DefaultTTL, nil)
	if res.Scope != 4 {
		t.Fatalf("Scope = %d, want 4", res.Scope)
	}
	if res.TrafficCost != 3 || res.Transmissions != 3 || res.Duplicates != 0 {
		t.Fatalf("chain flood: %+v", res)
	}
	if res.Arrival[3] != 3 {
		t.Fatalf("arrival[3] = %v, want 3", res.Arrival[3])
	}
	if !math.IsInf(res.FirstResponse, 1) {
		t.Fatal("no responders → FirstResponse must be +Inf")
	}
}

func TestEvaluateTTL(t *testing.T) {
	net := lineNet(t, []int{0, 1, 2, 3})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(2, 3)
	fwd := core.BlindFlooding{Net: net}
	res := Evaluate(net, fwd, 0, 2, nil)
	if res.Scope != 3 {
		t.Fatalf("TTL=2 Scope = %d, want 3", res.Scope)
	}
	res = Evaluate(net, fwd, 0, 0, nil)
	if res.Scope != 1 || res.Transmissions != 0 {
		t.Fatalf("TTL=0: %+v", res)
	}
}

// trianglePlus is the paper's Figure-1 style redundancy: E—L, E—M, L—M.
// After E floods, L and M forward to each other — two pure duplicates.
func TestEvaluateDuplicatesOnTriangle(t *testing.T) {
	net := lineNet(t, []int{0, 5, 10})
	net.Connect(0, 1)
	net.Connect(0, 2)
	net.Connect(1, 2)
	fwd := core.BlindFlooding{Net: net}
	res := Evaluate(net, fwd, 0, DefaultTTL, nil)
	if res.Scope != 3 {
		t.Fatalf("Scope = %d, want 3", res.Scope)
	}
	if res.Duplicates != 2 {
		t.Fatalf("Duplicates = %d, want 2 (L↔M cross-forwards)", res.Duplicates)
	}
	// Traffic: 0→1 (5), 0→2 (10), 1→2 (5), 2→1 (5) = 25.
	if res.TrafficCost != 25 {
		t.Fatalf("TrafficCost = %v, want 25", res.TrafficCost)
	}
}

func TestEvaluateResponders(t *testing.T) {
	net := lineNet(t, []int{0, 1, 2, 3})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(2, 3)
	fwd := core.BlindFlooding{Net: net}
	res := Evaluate(net, fwd, 0, DefaultTTL, map[overlay.PeerID]bool{2: true, 3: true})
	if res.FirstResponse != 4 { // nearest responder at arrival 2, ×2
		t.Fatalf("FirstResponse = %v, want 4", res.FirstResponse)
	}
	res = Evaluate(net, fwd, 0, DefaultTTL, map[overlay.PeerID]bool{0: true})
	if res.FirstResponse != 0 {
		t.Fatalf("source-held object: FirstResponse = %v, want 0", res.FirstResponse)
	}
}

func TestEvaluateDeadSource(t *testing.T) {
	net := lineNet(t, []int{0, 1})
	net.Connect(0, 1)
	net.Leave(0)
	res := Evaluate(net, core.BlindFlooding{Net: net}, 0, DefaultTTL, nil)
	if res.Scope != 0 || res.Transmissions != 0 {
		t.Fatalf("dead source: %+v", res)
	}
}

// buildACENet returns a random network plus an optimizer that has run
// the given number of ACE rounds.
func buildACENet(t *testing.T, seed int64, peers int, avgDeg float64, h, rounds int) (*overlay.Network, *core.Optimizer) {
	t.Helper()
	rng := sim.NewRNG(seed)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(peers*2))
	if err != nil {
		t.Fatal(err)
	}
	attach, err := overlay.RandomAttachments(rng.Derive("at"), peers*2, peers)
	if err != nil {
		t.Fatal(err)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := overlay.GenerateRandom(rng.Derive("gen"), net, avgDeg); err != nil {
		t.Fatal(err)
	}
	opt, err := core.NewOptimizer(net, core.DefaultConfig(h))
	if err != nil {
		t.Fatal(err)
	}
	optRNG := rng.Derive("opt")
	for i := 0; i < rounds; i++ {
		opt.Round(optRNG)
	}
	if rounds == 0 {
		opt.RebuildTrees()
	}
	return net, opt
}

func TestTreeForwardingCutsTrafficKeepsScope(t *testing.T) {
	net, opt := buildACENet(t, 61, 200, 8, 1, 0)
	rng := sim.NewRNG(62)
	var blindCost, treeCost float64
	var blindScope, treeScope int
	for i := 0; i < 30; i++ {
		src := overlay.PeerID(rng.Intn(net.N()))
		b := Evaluate(net, core.BlindFlooding{Net: net}, src, 64, nil)
		a := Evaluate(net, core.TreeForwarding{Opt: opt}, src, 64, nil)
		blindCost += b.TrafficCost
		treeCost += a.TrafficCost
		blindScope += b.Scope
		treeScope += a.Scope
	}
	if treeCost >= blindCost {
		t.Fatalf("tree traffic %v not below blind %v", treeCost, blindCost)
	}
	// The paper's Phase 2 claim: scope is retained. Require ≥ 99%.
	if float64(treeScope) < 0.99*float64(blindScope) {
		t.Fatalf("tree scope %d lost >1%% vs blind %d", treeScope, blindScope)
	}
}
