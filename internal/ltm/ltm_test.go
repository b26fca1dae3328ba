package ltm

import (
	"testing"

	"ace/internal/graph"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

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

func TestConfigValidation(t *testing.T) {
	net := lineNet(t, []int{0, 1})
	bad := []Config{
		{CutProb: -0.1, MinDegree: 1, DetectorCost: 1},
		{CutProb: 1.1, MinDegree: 1, DetectorCost: 1},
		{CutProb: 0.5, MinDegree: 0, DetectorCost: 1},
		{CutProb: 0.5, MinDegree: 1, DetectorCost: -1},
	}
	for i, cfg := range bad {
		if _, err := NewOptimizer(net, cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
	if _, err := NewOptimizer(net, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestCutsSlowestTriangleEdge(t *testing.T) {
	// Triangle 0@0, 1@1, 2@10: slowest edge is 0—2 (10). Extra anchors
	// keep everyone above the degree floor.
	net := lineNet(t, []int{0, 1, 10, 2, 11})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(0, 2)
	net.Connect(0, 3) // anchors
	net.Connect(1, 3)
	net.Connect(2, 4)
	cfg := DefaultConfig()
	cfg.CutProb = 1
	o, err := NewOptimizer(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := o.Round(sim.NewRNG(1))
	if net.HasEdge(0, 2) {
		t.Fatal("slowest triangle edge 0—2 not cut")
	}
	if !net.HasEdge(0, 1) || !net.HasEdge(1, 2) {
		t.Fatal("cheap triangle edges must survive")
	}
	if rep.Cuts == 0 || rep.DetectorCost <= 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestMinDegreeFloorStopsCuts(t *testing.T) {
	// Same triangle, no anchors: every cut would push someone to degree
	// 1 < MinDegree 2.
	net := lineNet(t, []int{0, 1, 10})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(0, 2)
	cfg := DefaultConfig()
	cfg.CutProb = 1
	o, _ := NewOptimizer(net, cfg)
	o.Round(sim.NewRNG(2))
	if net.NumEdges() != 3 {
		t.Fatalf("cut below the degree floor: %d edges", net.NumEdges())
	}
}

func TestAdoptsCloserTwoHopPeer(t *testing.T) {
	// 0@0 — 1@50 — 2@1: 2 is two hops away but far closer to 0 than 1.
	net := lineNet(t, []int{0, 50, 1})
	net.Connect(0, 1)
	net.Connect(1, 2)
	cfg := DefaultConfig()
	cfg.CutProb = 0 // isolate adoption
	o, _ := NewOptimizer(net, cfg)
	rep := o.Round(sim.NewRNG(3))
	if !net.HasEdge(0, 2) {
		t.Fatal("closer two-hop peer not adopted")
	}
	if rep.Adoptions == 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestRoundImprovesFloodingCost(t *testing.T) {
	rng := sim.NewRNG(41)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(600))
	if err != nil {
		t.Fatal(err)
	}
	attach, _ := overlay.RandomAttachments(rng.Derive("at"), 600, 250)
	net, _ := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err := overlay.GenerateSmallWorld(rng.Derive("gen"), net, 8, 0.6); err != nil {
		t.Fatal(err)
	}
	edgeCost := func() float64 {
		sum := 0.0
		for _, e := range net.SnapshotEdges() {
			sum += e.Cost
		}
		return sum
	}
	before := edgeCost()
	o, err := NewOptimizer(net, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	optRNG := sim.NewRNG(42)
	for i := 0; i < 10; i++ {
		o.Round(optRNG)
	}
	if after := edgeCost(); after >= before {
		t.Fatalf("LTM did not reduce total link cost: %v vs %v", after, before)
	}
	if !net.IsConnected() {
		t.Fatal("LTM disconnected the overlay")
	}
	if o.TotalOverhead() <= 0 {
		t.Fatal("overhead not accounted")
	}
}

func TestRoundDeterministic(t *testing.T) {
	run := func() []overlay.Edge {
		rng := sim.NewRNG(51)
		phys, _ := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(300))
		attach, _ := overlay.RandomAttachments(rng.Derive("at"), 300, 120)
		net, _ := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
		_ = overlay.GenerateSmallWorld(rng.Derive("gen"), net, 6, 0.6)
		o, _ := NewOptimizer(net, DefaultConfig())
		optRNG := sim.NewRNG(52)
		for i := 0; i < 5; i++ {
			o.Round(optRNG)
		}
		return net.SnapshotEdges()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic edge count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}
