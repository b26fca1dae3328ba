package topology

import (
	"math"
	"testing"

	"ace/internal/graph"
	"ace/internal/sim"
)

func TestGenerateBABasics(t *testing.T) {
	rng := sim.NewRNG(1)
	phys, err := GenerateBA(rng, DefaultBASpec(500))
	if err != nil {
		t.Fatal(err)
	}
	g := phys.Graph
	if g.N() != 500 {
		t.Fatalf("N = %d, want 500", g.N())
	}
	// Clique of M+1=3 nodes (3 edges) + M per arrival.
	wantEdges := 3 + 2*(500-3)
	if g.M() != wantEdges {
		t.Fatalf("M = %d, want %d", g.M(), wantEdges)
	}
	if _, count := graph.Components(g); count != 1 {
		t.Fatalf("BA graph not connected: %d components", count)
	}
	for _, e := range g.Edges() {
		if e.W < 1 || e.W > 1+40*1.4143 {
			t.Fatalf("edge delay %v outside [MinDelay, MinDelay+DelayScale*sqrt2]", e.W)
		}
	}
}

func TestGenerateBADeterministic(t *testing.T) {
	a, _ := GenerateBA(sim.NewRNG(7), DefaultBASpec(200))
	b, _ := GenerateBA(sim.NewRNG(7), DefaultBASpec(200))
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestGenerateBAValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, spec := range []BASpec{
		{N: 1, M: 1},
		{N: 10, M: 0},
		{N: 3, M: 3},
		{N: 10, M: 1, MinDelay: -1},
		{N: 10, M: 1, MinDelay: math.NaN()},
		{N: 10, M: 1, MinDelay: 1, DelayScale: math.Inf(1)},
	} {
		if _, err := GenerateBA(rng, spec); err == nil {
			t.Fatalf("spec %+v should fail validation", spec)
		}
	}
}

func TestBAPowerLawAndSmallWorld(t *testing.T) {
	rng := sim.NewRNG(3)
	phys, err := GenerateBA(rng, DefaultBASpec(3000))
	if err != nil {
		t.Fatal(err)
	}
	p := Measure(rng.Derive("measure"), phys.Graph, 48)
	if !p.Connected {
		t.Fatal("BA graph must be connected")
	}
	// BA degree distribution has exponent ~3; the MLE over the whole
	// distribution lands lower, but must be well inside the power-law
	// regime the paper cites (2..3.5) and far from exponential.
	if p.PowerLawAlpha < 1.8 || p.PowerLawAlpha > 3.8 {
		t.Fatalf("power-law alpha = %.2f, want in [1.8, 3.8]", p.PowerLawAlpha)
	}
	// Hubs: max degree should be far above the mean.
	if float64(p.MaxDegree) < 5*p.MeanDegree {
		t.Fatalf("max degree %d not hub-like vs mean %.1f", p.MaxDegree, p.MeanDegree)
	}
	// Small world: characteristic path length ~ log(N).
	if p.AvgPathLen <= 1 || p.AvgPathLen > 10 {
		t.Fatalf("avg path length = %.2f, want small-world (<10 hops at N=3000)", p.AvgPathLen)
	}
}

func TestGenerateWaxman(t *testing.T) {
	rng := sim.NewRNG(5)
	phys, err := GenerateWaxman(rng, WaxmanSpec{N: 300, Alpha: 0.2, Beta: 0.15, MinDelay: 1, DelayScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, count := graph.Components(phys.Graph); count != 1 {
		t.Fatalf("Waxman post-pass left %d components", count)
	}
	if phys.Graph.M() < 299 {
		t.Fatalf("Waxman produced too few edges: %d", phys.Graph.M())
	}
}

func TestGenerateWaxmanValidation(t *testing.T) {
	rng := sim.NewRNG(5)
	if _, err := GenerateWaxman(rng, WaxmanSpec{N: 1, Alpha: 0.2, Beta: 0.15}); err == nil {
		t.Fatal("N=1 should fail")
	}
	if _, err := GenerateWaxman(rng, WaxmanSpec{N: 10, Alpha: 0, Beta: 0.15}); err == nil {
		t.Fatal("Alpha=0 should fail")
	}
	for _, d := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := GenerateWaxman(rng, WaxmanSpec{N: 10, Alpha: 0.2, Beta: 0.15, MinDelay: d, DelayScale: 40}); err == nil {
			t.Fatalf("MinDelay=%v should fail", d)
		}
	}
}

func TestMeasureEmptyAndTiny(t *testing.T) {
	rng := sim.NewRNG(9)
	p := Measure(rng, graph.New(0), 10)
	if p.Nodes != 0 || p.Clustering != 0 || p.AvgPathLen != 0 {
		t.Fatalf("empty graph properties: %+v", p)
	}
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	p = Measure(rng, g, 10)
	if !p.Connected || p.MeanDegree != 1 || p.AvgPathLen != 1 {
		t.Fatalf("tiny graph properties: %+v", p)
	}
}

func TestClusteringTriangleVsStar(t *testing.T) {
	rng := sim.NewRNG(11)
	tri := graph.New(3)
	tri.AddEdge(0, 1, 1)
	tri.AddEdge(1, 2, 1)
	tri.AddEdge(0, 2, 1)
	if c := Measure(rng, tri, 3).Clustering; c != 1 {
		t.Fatalf("triangle clustering = %v, want 1", c)
	}
	star := graph.New(4)
	star.AddEdge(0, 1, 1)
	star.AddEdge(0, 2, 1)
	star.AddEdge(0, 3, 1)
	if c := Measure(rng, star, 4).Clustering; c != 0 {
		t.Fatalf("star clustering = %v, want 0", c)
	}
}

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
}
