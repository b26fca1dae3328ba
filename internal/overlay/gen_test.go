package overlay

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

func smallWorldFixture(t *testing.T, nPeers, c int, triad float64) *Network {
	t.Helper()
	rng := sim.NewRNG(101)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(2*nPeers))
	if err != nil {
		t.Fatal(err)
	}
	attach, err := RandomAttachments(rng.Derive("at"), 2*nPeers, nPeers)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateSmallWorld(rng.Derive("gen"), net, c, triad); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestGenerateSmallWorldProperties(t *testing.T) {
	net := smallWorldFixture(t, 800, 8, 0.6)
	if !net.IsConnected() {
		t.Fatal("small-world overlay disconnected")
	}
	if d := net.AverageDegree(); math.Abs(d-8) > 1 {
		t.Fatalf("average degree %v, want ~8", d)
	}
	// Triad formation must create real clustering — this is the
	// property §4.1 requires of logical topologies and what ACE's
	// Phase 2 exploits.
	cc := net.ClusteringCoefficient(sim.NewRNG(5), 300)
	if cc < 0.08 {
		t.Fatalf("clustering coefficient %.3f, want >= 0.08", cc)
	}
	// Power-law signature: hubs far above the mean.
	maxDeg := 0
	for _, p := range net.AlivePeers() {
		if net.Degree(p) > maxDeg {
			maxDeg = net.Degree(p)
		}
	}
	if float64(maxDeg) < 3*net.AverageDegree() {
		t.Fatalf("max degree %d not hub-like vs mean %.1f", maxDeg, net.AverageDegree())
	}
}

func TestGenerateSmallWorldTriadRaisesClustering(t *testing.T) {
	low := smallWorldFixture(t, 600, 8, 0).ClusteringCoefficient(sim.NewRNG(5), 300)
	high := smallWorldFixture(t, 600, 8, 0.8).ClusteringCoefficient(sim.NewRNG(5), 300)
	if high <= low {
		t.Fatalf("triad probability did not raise clustering: %.3f vs %.3f", high, low)
	}
}

func TestGenerateSmallWorldOddDegree(t *testing.T) {
	net := smallWorldFixture(t, 600, 5, 0.5)
	if d := net.AverageDegree(); math.Abs(d-5) > 1 {
		t.Fatalf("odd degree: average %v, want ~5", d)
	}
}

func TestGenerateSmallWorldValidation(t *testing.T) {
	net := testNet(t, 5)
	rng := sim.NewRNG(1)
	for _, tc := range []struct {
		c     int
		triad float64
	}{
		{1, 0.5},  // degree too low
		{10, 0.5}, // degree >= peers
		{4, -0.1}, // bad probability
		{4, 1.5},
	} {
		if err := GenerateSmallWorld(rng, net, tc.c, tc.triad); err == nil {
			t.Fatalf("accepted c=%d triad=%v", tc.c, tc.triad)
		}
	}
	two := testNet(t, 2)
	if err := GenerateSmallWorld(rng, two, 2, 0.5); err == nil {
		t.Fatal("accepted 2 peers")
	}
}

func TestClusteringCoefficientKnownValues(t *testing.T) {
	// Triangle: clustering 1. Star: clustering 0.
	tri := testNet(t, 3)
	rng := sim.NewRNG(2)
	allAlive(rng, tri)
	tri.Connect(0, 1)
	tri.Connect(1, 2)
	tri.Connect(0, 2)
	if cc := tri.ClusteringCoefficient(rng, 0); cc != 1 {
		t.Fatalf("triangle clustering = %v, want 1", cc)
	}
	star := testNet(t, 4)
	allAlive(rng, star)
	star.Connect(0, 1)
	star.Connect(0, 2)
	star.Connect(0, 3)
	if cc := star.ClusteringCoefficient(rng, 0); cc != 0 {
		t.Fatalf("star clustering = %v, want 0", cc)
	}
	// Sampled variant stays in [0, 1].
	if cc := star.ClusteringCoefficient(rng, 2); cc < 0 || cc > 1 {
		t.Fatalf("sampled clustering out of range: %v", cc)
	}
}

func TestAttachmentAndOracleAccessors(t *testing.T) {
	net := testNet(t, 3)
	if net.Attachment(2) != 2 {
		t.Fatalf("Attachment(2) = %d, want 2", net.Attachment(2))
	}
	if net.Oracle() == nil {
		t.Fatal("Oracle accessor returned nil")
	}
	if net.Oracle().Delay(net.Attachment(0), net.Attachment(2)) != 2 {
		t.Fatal("oracle accessor inconsistent with Cost")
	}
}

func TestAverageDegreeEmpty(t *testing.T) {
	net := testNet(t, 3)
	if net.AverageDegree() != 0 {
		t.Fatal("empty network average degree should be 0")
	}
}

// TestNetworkInvariantsUnderRandomOpsProperty drives the overlay with a
// random operation sequence and checks the structural invariants after
// every step: symmetric adjacency, a consistent edge count, and live
// peers only holding live links.
func TestNetworkInvariantsUnderRandomOpsProperty(t *testing.T) {
	check := func(net *Network) error {
		edges := 0
		for p := 0; p < net.N(); p++ {
			pid := PeerID(p)
			for _, q := range net.Neighbors(pid) {
				if !net.HasEdge(q, pid) {
					return fmt.Errorf("asymmetric edge %d-%d", pid, q)
				}
				if !net.Alive(pid) || !net.Alive(q) {
					return fmt.Errorf("dead peer holds edge %d-%d", pid, q)
				}
				edges++
			}
		}
		if edges%2 != 0 || edges/2 != net.NumEdges() {
			return fmt.Errorf("edge count mismatch: %d halves vs %d", edges, net.NumEdges())
		}
		alive := 0
		for p := 0; p < net.N(); p++ {
			if net.Alive(PeerID(p)) {
				alive++
			}
		}
		if alive != net.NumAlive() {
			return fmt.Errorf("alive count mismatch: %d vs %d", alive, net.NumAlive())
		}
		return nil
	}
	f := func(seed int64, ops []uint16) bool {
		net := testNet(t, 12)
		rng := sim.NewRNG(seed)
		for _, op := range ops {
			p := PeerID(op % 12)
			q := PeerID(op / 12 % 12)
			// The op kind comes from bits above p and q, so every peer
			// sees every kind.
			switch op / 144 % 4 {
			case 0:
				net.Join(rng, p, int(op%4))
			case 1:
				net.Leave(p)
			case 2:
				net.Connect(p, q)
			case 3:
				net.Disconnect(p, q)
			}
			if err := check(net); err != nil {
				t.Logf("after op %d: %v", op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
