package gnutella

import (
	"math"
	"testing"

	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/overlay"
	"ace/internal/sim"
)

func TestRandomWalkChain(t *testing.T) {
	// Chain 0-1-2-3: a single walker from 0 must march down the chain
	// (backtrack avoidance makes the walk deterministic here).
	net := lineNet(t, []int{0, 1, 2, 3})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(2, 3)
	rng := sim.NewRNG(1)
	res := RandomWalk(net, rng, 0, 1, 10, map[overlay.PeerID]bool{3: true})
	if res.Scope != 4 {
		t.Fatalf("Scope = %d, want 4", res.Scope)
	}
	if res.TrafficCost != 3 || res.Transmissions != 3 {
		t.Fatalf("traffic %v over %d sends, want 3/3", res.TrafficCost, res.Transmissions)
	}
	// Hit at arrival 3, return along the reverse path: 6.
	if res.FirstResponse != 6 {
		t.Fatalf("FirstResponse = %v, want 6", res.FirstResponse)
	}
}

func TestRandomWalkHopBudget(t *testing.T) {
	net := lineNet(t, []int{0, 1, 2, 3})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(2, 3)
	res := RandomWalk(net, sim.NewRNG(2), 0, 1, 2, nil)
	if res.Transmissions != 2 {
		t.Fatalf("Transmissions = %d, want hop budget 2", res.Transmissions)
	}
	if !math.IsInf(res.FirstResponse, 1) {
		t.Fatal("no responders → FirstResponse must be +Inf")
	}
}

func TestRandomWalkTerminatesOnHit(t *testing.T) {
	net := lineNet(t, []int{0, 1, 2, 3})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(2, 3)
	res := RandomWalk(net, sim.NewRNG(3), 0, 1, 100, map[overlay.PeerID]bool{1: true})
	if res.Transmissions != 1 {
		t.Fatalf("walker should stop at the responder: %d sends", res.Transmissions)
	}
	if res.FirstResponse != 2 {
		t.Fatalf("FirstResponse = %v, want 2", res.FirstResponse)
	}
}

func TestRandomWalkDeadAndIsolatedSource(t *testing.T) {
	net := lineNet(t, []int{0, 1})
	net.Connect(0, 1)
	net.Leave(0)
	if res := RandomWalk(net, sim.NewRNG(4), 0, 2, 10, nil); res.Scope != 0 {
		t.Fatalf("dead source: %+v", res)
	}
	iso := lineNet(t, []int{0, 1})
	if res := RandomWalk(iso, sim.NewRNG(5), 0, 2, 10, nil); res.Scope != 1 || res.Transmissions != 0 {
		t.Fatalf("isolated source: %+v", res)
	}
}

func TestRandomWalkMultipleWalkersCoverMore(t *testing.T) {
	net, _ := buildACENet(t, 81, 150, 8, 1, 0)
	one := RandomWalk(net, sim.NewRNG(6), 0, 1, 50, nil)
	many := RandomWalk(net, sim.NewRNG(6), 0, 16, 50, nil)
	if many.Scope <= one.Scope {
		t.Fatalf("16 walkers (%d) should cover more than 1 (%d)", many.Scope, one.Scope)
	}
	if many.Transmissions > 16*50 {
		t.Fatalf("hop budget exceeded: %d", many.Transmissions)
	}
}

func TestRandomWalkSourceIsResponder(t *testing.T) {
	net := lineNet(t, []int{0, 1})
	net.Connect(0, 1)
	res := RandomWalk(net, sim.NewRNG(7), 0, 1, 5, map[overlay.PeerID]bool{0: true})
	if res.FirstResponse != 0 {
		t.Fatalf("FirstResponse = %v, want 0", res.FirstResponse)
	}
}

func TestExpandingRingStopsEarly(t *testing.T) {
	net := lineNet(t, []int{0, 1, 2, 3})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(2, 3)
	fwd := core.BlindFlooding{Net: net}
	// Responder adjacent to the source: ring 1 suffices.
	r := ExpandingRing(net, fwd, 0, 7, map[overlay.PeerID]bool{1: true})
	if r.Transmissions != 1 || r.FirstResponse != 2 {
		t.Fatalf("ring 1 should answer: %+v", r)
	}
	// Responder at distance 3: rings 1..3 all flood.
	r = ExpandingRing(net, fwd, 0, 7, map[overlay.PeerID]bool{3: true})
	if r.Transmissions != 1+2+3 {
		t.Fatalf("Transmissions = %d, want 6 across three rings", r.Transmissions)
	}
	// Earlier rings delay the answer: ring1 horizon 1 (+2), ring2
	// horizon 2 (+4), then ring 3 answers at 2×3.
	if r.FirstResponse != 2+4+6 {
		t.Fatalf("FirstResponse = %v, want 12", r.FirstResponse)
	}
	if r.Scope != 4 {
		t.Fatalf("Scope = %d, want 4", r.Scope)
	}
}

func TestExpandingRingMiss(t *testing.T) {
	net := lineNet(t, []int{0, 1, 2})
	net.Connect(0, 1)
	net.Connect(1, 2)
	r := ExpandingRing(net, core.BlindFlooding{Net: net}, 0, 4, nil)
	if !math.IsInf(r.FirstResponse, 1) {
		t.Fatal("no responders should leave FirstResponse at +Inf")
	}
	if r.Scope != 3 {
		t.Fatalf("Scope = %d, want 3", r.Scope)
	}
}

// TestExpandingRingReportsLosses: the rings' lost messages and dead
// letters add up like their sends. On a lossy 16-peer unit chain the
// totals must equal the sums over the same rings run through Evaluate
// (the plan hashes message identity, so each ring replays exactly).
func TestExpandingRingReportsLosses(t *testing.T) {
	net := chainNet(t, 16)
	net.SetFaults(lossyInjector(t, fault.Plan{Seed: 4, LossRate: 0.3}))
	fwd := core.BlindFlooding{Net: net}
	const maxTTL = 8
	got := ExpandingRing(net, fwd, 0, maxTTL, nil)
	var want QueryResult
	for ttl := 1; ttl <= maxTTL; ttl++ {
		r := Evaluate(net, fwd, 0, ttl, nil)
		want.Transmissions += r.Transmissions
		want.Lost += r.Lost
		want.DeadLetters += r.DeadLetters
	}
	if want.Lost != 8 {
		t.Fatalf("rings run through Evaluate lost %d, want 8 (fixture changed)", want.Lost)
	}
	if got.Transmissions != want.Transmissions || got.Lost != want.Lost || got.DeadLetters != want.DeadLetters {
		t.Fatalf("ExpandingRing sends/lost/dead = %d/%d/%d, rings sum to %d/%d/%d",
			got.Transmissions, got.Lost, got.DeadLetters, want.Transmissions, want.Lost, want.DeadLetters)
	}

	// Over crash debris the dead letters add up the same way.
	net = chainNet(t, 6)
	net.Crash(3)
	fwd = core.BlindFlooding{Net: net}
	got = ExpandingRing(net, fwd, 0, 5, nil)
	if got.DeadLetters != 3 { // rings of TTL 3, 4 and 5 each reach the crashed peer
		t.Fatalf("ExpandingRing over debris: %d dead letters, want 3", got.DeadLetters)
	}
}
