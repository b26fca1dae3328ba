package topology

import (
	"math"
	"testing"

	"ace/internal/graph"
	"ace/internal/sim"
)

func TestGenerateTransitStub(t *testing.T) {
	rng := sim.NewRNG(31)
	spec := DefaultTransitStubSpec(1000)
	phys, err := GenerateTransitStub(rng, spec)
	if err != nil {
		t.Fatal(err)
	}
	if phys.Graph.N() != spec.Nodes() {
		t.Fatalf("N = %d, want %d", phys.Graph.N(), spec.Nodes())
	}
	if _, count := graph.Components(phys.Graph); count != 1 {
		t.Fatalf("transit-stub not connected: %d components", count)
	}
	if phys.Model != "transit-stub" {
		t.Fatalf("model = %q", phys.Model)
	}
	for _, p := range phys.Pos {
		if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
			t.Fatalf("position off the unit plane: %+v", p)
		}
	}
}

func TestTransitStubDelayHierarchy(t *testing.T) {
	// The defining property: intra-stub paths are far cheaper than
	// cross-domain paths (the paper's same-AS vs MSU↔Tsinghua example).
	rng := sim.NewRNG(32)
	spec := TransitStubSpec{
		TransitDomains: 4, TransitSize: 3, StubsPerTransit: 2, StubSize: 5,
		IntraStubDelay: 1, StubTransitDelay: 5, IntraTransitDelay: 10,
		InterTransitDelay: 40, EdgeProb: 0.3,
	}
	phys, err := GenerateTransitStub(rng, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes are allocated domain by domain: the first stub's nodes come
	// right after its transit routers. First domain occupies indices
	// [0, perDomain).
	perDomain := spec.TransitSize * (1 + spec.StubsPerTransit*spec.StubSize)
	dist, _ := graph.Dijkstra(phys.Graph, spec.TransitSize) // first stub node
	var intra, inter float64
	var nIntra, nInter int
	for v := 0; v < phys.Graph.N(); v++ {
		if v == spec.TransitSize {
			continue
		}
		if v < perDomain {
			intra += dist[v]
			nIntra++
		} else {
			inter += dist[v]
			nInter++
		}
	}
	intra /= float64(nIntra)
	inter /= float64(nInter)
	if inter < 3*intra {
		t.Fatalf("delay hierarchy too flat: intra=%.1f inter=%.1f", intra, inter)
	}
}

func TestTransitStubValidation(t *testing.T) {
	rng := sim.NewRNG(33)
	bad := []TransitStubSpec{
		{},
		{TransitDomains: 1, TransitSize: 1, StubSize: 1, IntraStubDelay: -1, StubTransitDelay: 1, IntraTransitDelay: 1, InterTransitDelay: 1},
		{TransitDomains: 1, TransitSize: 1, StubSize: 1, IntraStubDelay: 1, StubTransitDelay: 1, IntraTransitDelay: 1, InterTransitDelay: 1, EdgeProb: 2},
		{TransitDomains: 1, TransitSize: 1, StubSize: 1, IntraStubDelay: math.NaN(), StubTransitDelay: 1, IntraTransitDelay: 1, InterTransitDelay: 1},
		{TransitDomains: 1, TransitSize: 1, StubSize: 1, IntraStubDelay: 1, StubTransitDelay: 1, IntraTransitDelay: 1, InterTransitDelay: math.Inf(1)},
	}
	for i, spec := range bad {
		if _, err := GenerateTransitStub(rng, spec); err == nil {
			t.Fatalf("spec %d accepted", i)
		}
	}
}

func TestTransitStubDeterministic(t *testing.T) {
	spec := DefaultTransitStubSpec(500)
	a, _ := GenerateTransitStub(sim.NewRNG(34), spec)
	b, _ := GenerateTransitStub(sim.NewRNG(34), spec)
	ea, eb := a.Graph.Edges(), b.Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatal("edge counts differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}
