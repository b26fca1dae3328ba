package graph_test

import (
	"testing"

	"ace/internal/graph"
	"ace/internal/sim"
	"ace/internal/topology"
)

// TestSSSPMatchesDijkstraBA covers every source of the 2k-node physical
// topology ace.NewSystem builds at its default seed (1): DefaultBASpec
// drawn from the seed's "phys" stream.
func TestSSSPMatchesDijkstraBA(t *testing.T) {
	phys, err := topology.GenerateBA(sim.NewRNG(1).Derive("phys"), topology.DefaultBASpec(2000))
	if err != nil {
		t.Fatal(err)
	}
	graph.RequireSSSPMatchesDijkstra(t, phys.Graph)
}

// TestSSSPMatchesDijkstraTransitStub: four delay levels (1, 5, 10, 40)
// make equal-cost ties the norm.
func TestSSSPMatchesDijkstraTransitStub(t *testing.T) {
	phys, err := topology.GenerateTransitStub(sim.NewRNG(31), topology.DefaultTransitStubSpec(1000))
	if err != nil {
		t.Fatal(err)
	}
	graph.RequireSSSPMatchesDijkstra(t, phys.Graph)
}

func TestSSSPMatchesDijkstraWaxman(t *testing.T) {
	phys, err := topology.GenerateWaxman(sim.NewRNG(33), topology.WaxmanSpec{N: 500, Alpha: 0.2, Beta: 0.15, MinDelay: 1, DelayScale: 40})
	if err != nil {
		t.Fatal(err)
	}
	graph.RequireSSSPMatchesDijkstra(t, phys.Graph)
}
