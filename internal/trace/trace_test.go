package trace

import (
	"bytes"
	"strings"
	"testing"

	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

func TestPhysicalRoundTrip(t *testing.T) {
	rng := sim.NewRNG(1)
	orig, err := topology.GenerateBA(rng, topology.DefaultBASpec(120))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePhysical(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPhysical(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Model != "ba" || got.Degree != 2 {
		t.Fatalf("model metadata lost: %s/%d", got.Model, got.Degree)
	}
	if got.Graph.N() != orig.Graph.N() || got.Graph.M() != orig.Graph.M() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d", got.Graph.N(), got.Graph.M(), orig.Graph.N(), orig.Graph.M())
	}
	ge, oe := got.Graph.Edges(), orig.Graph.Edges()
	for i := range oe {
		if ge[i] != oe[i] {
			t.Fatalf("edge %d: %+v vs %+v", i, ge[i], oe[i])
		}
	}
	for i := range orig.Pos {
		if got.Pos[i] != orig.Pos[i] {
			t.Fatalf("pos %d: %+v vs %+v", i, got.Pos[i], orig.Pos[i])
		}
	}
}

func TestReadPhysicalErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad header":  "nope v1\n",
		"bad model":   "ace-topology v1\nmodelo ba 2\n",
		"bad nodes":   "ace-topology v1\nmodel ba 2\nnodes x\n",
		"truncated":   "ace-topology v1\nmodel ba 2\nnodes 2\npos 0 0\n",
		"bad edge":    "ace-topology v1\nmodel ba 2\nnodes 2\npos 0 0\npos 1 1\nedges 1\nedge 0 9 1\n",
		"self loop":   "ace-topology v1\nmodel ba 2\nnodes 2\npos 0 0\npos 1 1\nedges 1\nedge 1 1 1\n",
		"neg nodes":   "ace-topology v1\nmodel ba 2\nnodes -1\n",
		"short edges": "ace-topology v1\nmodel ba 2\nnodes 2\npos 0 0\npos 1 1\nedges 2\nedge 0 1 1\n",
	}
	// Delays the shortest-path kernels cannot use: a negative edge is a
	// negative cycle, on which they would never stop.
	for _, w := range []string{"-1", "-0.5", "NaN", "Inf", "+Inf", "-Inf", "1e400"} {
		cases["delay "+w] = "ace-topology v1\nmodel ba 2\nnodes 2\npos 0 0\npos 1 1\nedges 1\nedge 0 1 " + w + "\n"
	}
	for name, in := range cases {
		if _, err := ReadPhysical(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	zero := "ace-topology v1\nmodel ba 2\nnodes 2\npos 0 0\npos 1 1\nedges 1\nedge 0 1 0\n"
	if _, err := ReadPhysical(strings.NewReader(zero)); err != nil {
		t.Fatalf("zero delay rejected: %v", err)
	}
}

func overlayFixture(t *testing.T) (*overlay.Network, *physical.Oracle) {
	t.Helper()
	rng := sim.NewRNG(2)
	phys, err := topology.GenerateBA(rng.Derive("p"), topology.DefaultBASpec(200))
	if err != nil {
		t.Fatal(err)
	}
	oracle := physical.NewOracle(phys.Graph)
	attach, err := overlay.RandomAttachments(rng.Derive("a"), 200, 80)
	if err != nil {
		t.Fatal(err)
	}
	net, err := overlay.NewNetwork(oracle, attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := overlay.GenerateRandom(rng.Derive("g"), net, 4); err != nil {
		t.Fatal(err)
	}
	net.Leave(5) // one dead slot to exercise liveness serialization
	return net, oracle
}

func TestOverlayRoundTrip(t *testing.T) {
	net, oracle := overlayFixture(t)
	var buf bytes.Buffer
	if err := WriteOverlay(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := ReadOverlay(&buf, func(attach []int) (*overlay.Network, error) {
		return overlay.NewNetwork(oracle, attach)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != net.N() || got.NumAlive() != net.NumAlive() || got.NumEdges() != net.NumEdges() {
		t.Fatalf("counts differ: %d/%d/%d vs %d/%d/%d",
			got.N(), got.NumAlive(), got.NumEdges(), net.N(), net.NumAlive(), net.NumEdges())
	}
	if got.Alive(5) {
		t.Fatal("dead slot revived")
	}
	ge, oe := got.SnapshotEdges(), net.SnapshotEdges()
	for i := range oe {
		if ge[i] != oe[i] {
			t.Fatalf("edge %d: %+v vs %+v", i, ge[i], oe[i])
		}
	}
}

func TestReadOverlayErrors(t *testing.T) {
	_, oracle := overlayFixture(t)
	mk := func(attach []int) (*overlay.Network, error) { return overlay.NewNetwork(oracle, attach) }
	cases := map[string]string{
		"empty":     "",
		"bad peer":  "ace-overlay v1\nslots 1\nbogus\n",
		"bad link":  "ace-overlay v1\nslots 2\npeer 0 1\npeer 1 1\nlinks 1\nlink 0 0\n",
		"dead link": "ace-overlay v1\nslots 2\npeer 0 1\npeer 1 0\nlinks 1\nlink 0 1\n",
	}
	for name, in := range cases {
		if _, err := ReadOverlay(strings.NewReader(in), mk); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

func TestSyntheticGnutellaPowerLaw(t *testing.T) {
	rng := sim.NewRNG(3)
	phys, err := topology.GenerateBA(rng.Derive("p"), topology.DefaultBASpec(3000))
	if err != nil {
		t.Fatal(err)
	}
	oracle := physical.NewOracle(phys.Graph)
	attach, err := overlay.RandomAttachments(rng.Derive("a"), 3000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	net, err := overlay.NewNetwork(oracle, attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := SyntheticGnutella(rng.Derive("g"), net, 6); err != nil {
		t.Fatal(err)
	}
	if !net.IsConnected() {
		t.Fatal("snapshot disconnected")
	}
	d := net.AverageDegree()
	if d < 5 || d > 7 {
		t.Fatalf("mean degree %v, want ~6", d)
	}
	// Power-law signature: hubs far above the mean.
	maxDeg := 0
	for _, p := range net.AlivePeers() {
		if net.Degree(p) > maxDeg {
			maxDeg = net.Degree(p)
		}
	}
	if float64(maxDeg) < 5*d {
		t.Fatalf("max degree %d not hub-like vs mean %v", maxDeg, d)
	}
}

func TestSyntheticGnutellaValidation(t *testing.T) {
	_, oracle := overlayFixture(t)
	net, _ := overlay.NewNetwork(oracle, []int{0, 1})
	if err := SyntheticGnutella(sim.NewRNG(4), net, 4); err == nil {
		t.Fatal("2 slots accepted")
	}
	net3, _ := overlay.NewNetwork(oracle, []int{0, 1, 2})
	if err := SyntheticGnutella(sim.NewRNG(5), net3, 1); err == nil {
		t.Fatal("degree 1 accepted")
	}
}
