package overlay

import (
	"math"
	"testing"

	"ace/internal/graph"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// testNet builds a small overlay over a 20-node physical line so costs
// are easy to reason about: cost(p,q) = |attach(p)-attach(q)|.
func testNet(t *testing.T, nPeers int) *Network {
	t.Helper()
	g := graph.New(20)
	for i := 0; i < 19; i++ {
		g.AddEdge(i, i+1, 1)
	}
	attach := make([]int, nPeers)
	for i := range attach {
		attach[i] = i
	}
	net, err := NewNetwork(physical.NewOracle(g), attach)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func allAlive(rng *sim.RNG, net *Network) {
	for p := 0; p < net.N(); p++ {
		net.Join(rng, PeerID(p), 0)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1)
	if _, err := NewNetwork(physical.NewOracle(g), []int{0, 5}); err == nil {
		t.Fatal("out-of-range attachment accepted")
	}
}

func TestConnectDisconnect(t *testing.T) {
	net := testNet(t, 4)
	rng := sim.NewRNG(1)
	allAlive(rng, net)

	if !net.Connect(0, 1) {
		t.Fatal("Connect failed")
	}
	if net.Connect(0, 1) || net.Connect(1, 0) {
		t.Fatal("duplicate Connect should report false")
	}
	if net.Connect(2, 2) {
		t.Fatal("self Connect should report false")
	}
	if !net.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if net.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", net.NumEdges())
	}
	if !net.Disconnect(1, 0) {
		t.Fatal("Disconnect failed")
	}
	if net.Disconnect(0, 1) {
		t.Fatal("double Disconnect should report false")
	}
	if net.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", net.NumEdges())
	}
}

func TestConnectDeadPeerRefused(t *testing.T) {
	net := testNet(t, 3)
	rng := sim.NewRNG(1)
	net.Join(rng, 0, 0)
	if net.Connect(0, 1) {
		t.Fatal("Connect to dead peer should fail")
	}
}

func TestCostMatchesPhysicalDistance(t *testing.T) {
	net := testNet(t, 10)
	if c := net.Cost(2, 7); c != 5 {
		t.Fatalf("Cost = %v, want 5", c)
	}
	if c := net.Cost(7, 2); c != 5 {
		t.Fatalf("Cost not symmetric: %v", c)
	}
}

func TestJoinLeaveRejoinHostCache(t *testing.T) {
	net := testNet(t, 6)
	rng := sim.NewRNG(2)
	allAlive(rng, net)
	net.Connect(0, 1)
	net.Connect(0, 2)
	net.Connect(0, 3)

	net.Leave(0)
	if net.Alive(0) || net.Degree(0) != 0 || net.NumAlive() != 5 {
		t.Fatal("Leave did not clear state")
	}
	if net.Degree(1) != 0 {
		t.Fatal("Leave left a dangling reverse edge")
	}

	// Rejoin with target 2: must prefer cached neighbors {1,2,3}.
	made := net.Join(rng, 0, 2)
	if made != 2 {
		t.Fatalf("Join made %d links, want 2", made)
	}
	for _, q := range net.Neighbors(0) {
		if q != 1 && q != 2 && q != 3 {
			t.Fatalf("rejoin connected to %d, not a cached address", q)
		}
	}
	if net.Join(rng, 0, 2) != 0 {
		t.Fatal("Join on live peer should be a no-op")
	}
}

func TestJoinFallsBackToRandom(t *testing.T) {
	net := testNet(t, 5)
	rng := sim.NewRNG(3)
	allAlive(rng, net)
	net.Connect(0, 1)
	net.Leave(0)
	net.Leave(1) // cached address now dead
	if made := net.Join(rng, 0, 2); made != 2 {
		t.Fatalf("Join made %d links, want 2 random fallbacks", made)
	}
	for _, q := range net.Neighbors(0) {
		if q == 1 {
			t.Fatal("connected to dead cached peer")
		}
	}
}

func TestLeaveDeadPeerNoop(t *testing.T) {
	net := testNet(t, 3)
	net.Leave(1)
	if net.NumAlive() != 0 {
		t.Fatal("Leave on dead peer changed state")
	}
}

func TestNeighborsSortedAndCopied(t *testing.T) {
	net := testNet(t, 5)
	rng := sim.NewRNG(4)
	allAlive(rng, net)
	net.Connect(0, 3)
	net.Connect(0, 1)
	net.Connect(0, 4)
	nb := net.Neighbors(0)
	want := []PeerID{1, 3, 4}
	for i := range want {
		if nb[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v", nb, want)
		}
	}
	nb[0] = 99 // mutating the copy must not affect the network
	if !net.HasEdge(0, 1) {
		t.Fatal("caller mutation leaked into network")
	}
}

func TestNeighborsViewAndAppend(t *testing.T) {
	net := testNet(t, 6)
	rng := sim.NewRNG(11)
	allAlive(rng, net)
	net.Connect(0, 4)
	net.Connect(0, 2)
	net.Connect(0, 5)
	want := []PeerID{2, 4, 5}
	view := net.NeighborsView(0)
	if len(view) != len(want) {
		t.Fatalf("view = %v, want %v", view, want)
	}
	for i := range want {
		if view[i] != want[i] {
			t.Fatalf("view = %v, want %v", view, want)
		}
	}
	buf := make([]PeerID, 0, 8)
	got := net.NeighborsAppend(0, buf[:0])
	if &got[0] != &buf[:1][0] {
		t.Fatal("NeighborsAppend with capacity should not reallocate")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("append = %v, want %v", got, want)
		}
	}
	// The appended copy survives mutation; the view reflects it.
	net.Disconnect(0, 4)
	if len(got) != 3 || got[1] != 4 {
		t.Fatalf("appended copy mutated: %v", got)
	}
	if nv := net.NeighborsView(0); len(nv) != 2 || nv[0] != 2 || nv[1] != 5 {
		t.Fatalf("view after disconnect = %v", nv)
	}

	alive := net.AlivePeersAppend(make([]PeerID, 0, 6))
	if len(alive) != 6 || alive[0] != 0 || alive[5] != 5 {
		t.Fatalf("AlivePeersAppend = %v", alive)
	}
}

func TestIsConnected(t *testing.T) {
	net := testNet(t, 4)
	rng := sim.NewRNG(5)
	allAlive(rng, net)
	net.Connect(0, 1)
	net.Connect(2, 3)
	if net.IsConnected() {
		t.Fatal("two components reported connected")
	}
	net.Connect(1, 2)
	if !net.IsConnected() {
		t.Fatal("connected overlay reported disconnected")
	}
	net.Leave(3)
	if !net.IsConnected() {
		t.Fatal("connectivity should ignore dead peers")
	}
}

func TestSnapshotEdges(t *testing.T) {
	net := testNet(t, 4)
	rng := sim.NewRNG(6)
	allAlive(rng, net)
	net.Connect(2, 0)
	net.Connect(1, 3)
	es := net.SnapshotEdges()
	if len(es) != 2 {
		t.Fatalf("snapshot = %v", es)
	}
	if es[0].P != 0 || es[0].Q != 2 || es[0].Cost != 2 {
		t.Fatalf("edge 0 = %+v", es[0])
	}
	if es[1].P != 1 || es[1].Q != 3 || es[1].Cost != 2 {
		t.Fatalf("edge 1 = %+v", es[1])
	}
}

func TestRandomAttachments(t *testing.T) {
	rng := sim.NewRNG(7)
	at, err := RandomAttachments(rng, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, a := range at {
		if a < 0 || a >= 100 || seen[a] {
			t.Fatalf("bad attachment set %v", at)
		}
		seen[a] = true
	}
	if _, err := RandomAttachments(rng, 5, 10); err == nil {
		t.Fatal("too many peers accepted")
	}
}

func TestGenerateRandomDegreeAndConnectivity(t *testing.T) {
	rng := sim.NewRNG(8)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(500))
	if err != nil {
		t.Fatal(err)
	}
	attach, err := RandomAttachments(rng.Derive("attach"), 500, 300)
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{4, 6, 8, 10} {
		// Reset: rebuild network each time.
		net, _ = NewNetwork(physical.NewOracle(phys.Graph), attach)
		if err := GenerateRandom(rng.Derive("gen"), net, c); err != nil {
			t.Fatal(err)
		}
		if !net.IsConnected() {
			t.Fatalf("C=%v: generated overlay disconnected", c)
		}
		if got := net.AverageDegree(); math.Abs(got-c) > 0.2 {
			t.Fatalf("C=%v: average degree %v", c, got)
		}
		if net.NumAlive() != 300 {
			t.Fatalf("C=%v: %d alive, want 300", c, net.NumAlive())
		}
	}
}

func TestGenerateRandomValidation(t *testing.T) {
	net := testNet(t, 5)
	rng := sim.NewRNG(9)
	if err := GenerateRandom(rng, net, 1); err == nil {
		t.Fatal("degree < 2 accepted")
	}
	if err := GenerateRandom(rng, net, 100); err == nil {
		t.Fatal("infeasible degree accepted")
	}
	one := testNet(t, 1)
	if err := GenerateRandom(rng, one, 4); err == nil {
		t.Fatal("single peer accepted")
	}
}
