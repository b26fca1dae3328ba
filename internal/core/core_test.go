package core

import (
	"testing"

	"ace/internal/graph"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// lineNet builds an overlay whose peers attach to a physical line graph,
// so Cost(p,q) = |attach(p) − attach(q)|. All peers start alive with no
// edges.
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

func newOpt(t *testing.T, net *overlay.Network, h int) *Optimizer {
	t.Helper()
	o, err := NewOptimizer(net, DefaultConfig(h))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestConfigValidation(t *testing.T) {
	net := lineNet(t, []int{0, 1})
	for _, cfg := range []Config{
		{Depth: 0, Policy: PolicyRandom},
		{Depth: 1, Policy: Policy(99)},
		{Depth: 1, Policy: PolicyNaive, NaiveProbes: 0},
		{Depth: 1, Policy: PolicyRandom, MaxDegree: -1},
		{Depth: 1, Policy: PolicyRandom, MaxDegree: minDegree - 1},
		{Depth: 1, Policy: PolicyRandom, Shards: -2},
	} {
		if _, err := NewOptimizer(net, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyRandom: "random", PolicyNaive: "naive", PolicyClosest: "closest", Policy(9): "policy(9)",
	} {
		if p.String() != want {
			t.Fatalf("Policy(%d).String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

// Star-plus-chord fixture: peer 0 at position 0, peers 1..3 at positions
// 10, 11, 12. Overlay edges 0–1, 0–2, 0–3 (star) plus 1–2 and 2–3.
// Costs: 0–1=10, 0–2=11, 0–3=12, 1–2=1, 2–3=1.
// MST from 0's view: 0–1 (10), 1–2 (1), 2–3 (1). So flooding(0) = {1},
// non-flooding(0) = {2, 3}.
func starChord(t *testing.T) *overlay.Network {
	net := lineNet(t, []int{0, 10, 11, 12})
	net.Connect(0, 1)
	net.Connect(0, 2)
	net.Connect(0, 3)
	net.Connect(1, 2)
	net.Connect(2, 3)
	return net
}

func TestBuildStateClassification(t *testing.T) {
	net := starChord(t)
	o := newOpt(t, net, 1)
	o.RebuildTrees()

	st := o.State(0)
	if len(st.Closure) != 4 {
		t.Fatalf("closure = %v, want 4 peers", st.Closure)
	}
	if d, ok := st.DepthOf(0); st.Closure[0] != 0 || !ok || d != 0 {
		t.Fatal("closure must start at self with depth 0")
	}
	for _, q := range []overlay.PeerID{1, 2, 3} {
		if d, ok := st.DepthOf(q); !ok || d != 1 {
			t.Fatalf("depth[%d] = %d (in closure: %v), want 1", q, d, ok)
		}
	}
	if st.KnownPairs != 6 {
		t.Fatalf("KnownPairs = %d, want 6 (complete graph on 4)", st.KnownPairs)
	}
	if got := o.FloodingNeighbors(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("flooding(0) = %v, want [1]", got)
	}
	if len(st.NonFlooding) != 2 || st.NonFlooding[0] != 2 || st.NonFlooding[1] != 3 {
		t.Fatalf("nonflooding(0) = %v, want [2 3]", st.NonFlooding)
	}
}

func TestBuildStateTreeIsMST(t *testing.T) {
	net := starChord(t)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	st := o.State(0)
	// Tree adjacency must match the unique MST {0-1, 1-2, 2-3}.
	wantAdj := map[overlay.PeerID][]overlay.PeerID{
		0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2},
	}
	for u, want := range wantAdj {
		got := st.TreeNeighbors(u)
		if len(got) != len(want) {
			t.Fatalf("TreeNeighbors(%d) = %v, want %v", u, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("TreeNeighbors(%d) = %v, want %v", u, got, want)
			}
		}
	}
}

func TestMinCostNeighborAlwaysFlooding(t *testing.T) {
	// Cut property: a peer's cheapest link is on every MST of its
	// closure, so the cheapest neighbor is always a flooding neighbor.
	rng := sim.NewRNG(31)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(300))
	if err != nil {
		t.Fatal(err)
	}
	attach, _ := overlay.RandomAttachments(rng.Derive("at"), 300, 150)
	net, _ := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err := overlay.GenerateRandom(rng.Derive("gen"), net, 6); err != nil {
		t.Fatal(err)
	}
	// Cut property on the complete closure graph: at h=1 the closure is
	// p plus its neighbors, so p's cheapest incident pair is its
	// cheapest neighbor, which every MST must include. (At h >= 2 a
	// depth-2 member can be closer than any neighbor, so the property
	// only binds at h=1.)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	for _, p := range net.AlivePeers() {
		st := o.State(p)
		var best overlay.PeerID = -1
		bestCost := 0.0
		for _, q := range net.Neighbors(p) {
			if c := net.Cost(p, q); best < 0 || c < bestCost {
				best, bestCost = q, c
			}
		}
		if best >= 0 && !st.IsFlooding(best) {
			t.Fatalf("peer %d's cheapest neighbor %d not flooding", p, best)
		}
	}
}

func TestFloodingPlusNonFloodingCoversNeighbors(t *testing.T) {
	net := starChord(t)
	o := newOpt(t, net, 2)
	o.RebuildTrees()
	for _, p := range net.AlivePeers() {
		st := o.State(p)
		total := len(st.FloodingView()) + len(st.NonFlooding)
		if total != net.Degree(p) {
			t.Fatalf("peer %d: flooding %d + nonflooding %d != degree %d",
				p, len(st.FloodingView()), len(st.NonFlooding), net.Degree(p))
		}
		for _, q := range st.FloodingView() {
			if !net.HasEdge(p, q) {
				t.Fatalf("peer %d: flooding neighbor %d not connected", p, q)
			}
		}
	}
}

func TestClosureDepth2(t *testing.T) {
	// Chain overlay 0-1-2-3: closure(0, 2) = {0,1,2}.
	net := lineNet(t, []int{0, 1, 2, 3})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(2, 3)
	o := newOpt(t, net, 2)
	o.RebuildTrees()
	st := o.State(0)
	if len(st.Closure) != 3 {
		t.Fatalf("2-closure of 0 = %v, want {0,1,2}", st.Closure)
	}
	if d, ok := st.DepthOf(2); !ok || d != 2 {
		t.Fatalf("depth[2] = %d (in closure: %v), want 2", d, ok)
	}
	if st.KnownPairs != 3 {
		t.Fatalf("KnownPairs = %d, want 3 (complete graph on 3)", st.KnownPairs)
	}
}

// figure4Net builds the triangle of Figure 4: peer A(0) has non-flooding
// neighbor B(1); H(2) is B's neighbor. Attachments chosen per test to
// realize each cost ordering. A also needs a flooding neighbor so B can
// be non-flooding: F(3) placed right next to A, with B connected to F so
// the MST can bypass A—B.
func figure4Net(t *testing.T, aPos, bPos, hPos int) *overlay.Network {
	net := lineNet(t, []int{aPos, bPos, hPos, aPos + 1})
	net.Connect(0, 1) // A—B
	net.Connect(1, 2) // B—H
	net.Connect(0, 3) // A—F
	net.Connect(1, 3) // B—F keeps B reachable in the MST without A—B
	return net
}

// figure4 applies the Figure-4 rules to the triangle a, b, h with its
// three delays read from the oracle, as a proposal would carry them.
func figure4(o *Optimizer, a, b, h overlay.PeerID, rep *StepReport) {
	av := o.net.CostsFrom(a)
	o.applyFigure4(a, b, h, av.To(h), av.To(b), o.net.CostsFrom(b).To(h), rep)
}

func TestFigure4bReplace(t *testing.T) {
	// A=0, B=100, H=50: AH(50) < AB(100) → replace: cut A—B, add A—H.
	net := figure4Net(t, 0, 100, 50)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	st := o.State(0)
	if len(st.NonFlooding) != 1 || st.NonFlooding[0] != 1 {
		t.Fatalf("precondition: nonflooding(A) = %v, want [B=1]", st.NonFlooding)
	}
	var rep StepReport
	figure4(o, 0, 1, 2, &rep)
	if rep.Replacements != 1 {
		t.Fatalf("report = %+v, want 1 replacement", rep)
	}
	if net.HasEdge(0, 1) || !net.HasEdge(0, 2) {
		t.Fatal("Figure 4(b): expected A—B cut and A—H connected")
	}
}

func TestFigure4cKeepAndDeferredCut(t *testing.T) {
	// A=0, B=10, H=100: AB(10) < AH(100) < BH(90)? No — need AH < BH.
	// Use A=0, B=60, H=100: AB=60, AH=100, BH=40 → AH > BH: case (d).
	// For case (c): AB < AH < BH. A=0, B=10, H=15: AB=10, AH=15, BH=5 —
	// no. Place H on the far side: A=0, B=40, H=45 → AB=40, AH=45,
	// BH=5: AH > BH, case (d). The (c) ordering needs the physical
	// triangle inequality slack: with line attachments BH = |AH−AB|, so
	// AH < BH is impossible when H is beyond B. Put H before A:
	// A=50, B=90, H=20 → AB=40, AH=30 < AB: that's case (b).
	// A=50, B=90, H=0 → AB=40, AH=50, BH=90: AB < AH < BH. Case (c).
	net := figure4Net(t, 50, 90, 0)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	var rep StepReport
	figure4(o, 0, 1, 2, &rep)
	if rep.KeptNew != 1 || rep.Replacements != 0 {
		t.Fatalf("report = %+v, want KeptNew=1", rep)
	}
	if !net.HasEdge(0, 1) || !net.HasEdge(0, 2) {
		t.Fatal("Figure 4(c): A must keep B and add H")
	}
	if o.PendingCuts() != 1 {
		t.Fatalf("PendingCuts = %d, want 1", o.PendingCuts())
	}

	// B—H persists: pending cut must NOT fire.
	rep = StepReport{}
	o.executePendingCuts(&rep)
	if rep.DeferredCuts != 0 || !net.HasEdge(0, 1) {
		t.Fatal("deferred cut fired while B—H still exists")
	}

	// B drops H (as the paper predicts B eventually does): A cuts A—B.
	net.Disconnect(1, 2)
	rep = StepReport{}
	o.executePendingCuts(&rep)
	if rep.DeferredCuts != 1 {
		t.Fatalf("report = %+v, want DeferredCuts=1", rep)
	}
	if net.HasEdge(0, 1) {
		t.Fatal("A—B should be cut after B—H vanished")
	}
	if o.PendingCuts() != 0 {
		t.Fatal("pending entry not cleared")
	}
}

func TestFigure4dNoChange(t *testing.T) {
	// AH largest: A=0, B=40, H=100 → AB=40, AH=100, BH=60. AH > AB and
	// AH > BH: keep probing, no change.
	net := figure4Net(t, 0, 40, 100)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	edgesBefore := net.NumEdges()
	var rep StepReport
	figure4(o, 0, 1, 2, &rep)
	if rep.Replacements+rep.KeptNew != 0 || net.NumEdges() != edgesBefore {
		t.Fatalf("Figure 4(d) changed the overlay: %+v", rep)
	}
}

func TestPendingCutAbandonedOnChurn(t *testing.T) {
	net := figure4Net(t, 50, 90, 0)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	var rep StepReport
	figure4(o, 0, 1, 2, &rep) // case (c): pending (A,B,H)
	if o.PendingCuts() != 1 {
		t.Fatal("precondition: want one pending cut")
	}
	net.Leave(2) // H dies; the plan is void
	rep = StepReport{}
	o.executePendingCuts(&rep)
	if rep.DeferredCuts != 0 || o.PendingCuts() != 0 {
		t.Fatalf("pending not abandoned on churn: %+v, pending=%d", rep, o.PendingCuts())
	}
	if !net.HasEdge(0, 1) {
		t.Fatal("A—B must survive when the candidate dies")
	}
}

func TestOptimizerString(t *testing.T) {
	net := starChord(t)
	o := newOpt(t, net, 2)
	o.RebuildTrees()
	if got := o.String(); got != "ACE(h=2, policy=random, peers=4)" {
		t.Fatalf("String() = %q", got)
	}
}
