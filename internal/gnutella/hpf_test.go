package gnutella

import (
	"math"
	"testing"

	"ace/internal/core"
	"ace/internal/overlay"
	"ace/internal/sim"
)

func TestHPFFullPeriodEqualsBlind(t *testing.T) {
	// period 1 means every hop floods fully: HPF must match the blind
	// flood exactly on scope, transmissions and traffic.
	net, _ := buildACENet(t, 95, 100, 6, 1, 0)
	rng := sim.NewRNG(96)
	for _, src := range []overlay.PeerID{0, 17, 99} {
		h := HybridPeriodicalFlood(net, rng, src, 64, 2, 1, HPFRandom, nil)
		b := Evaluate(net, core.BlindFlooding{Net: net}, src, 64, nil)
		if h.Scope != b.Scope || h.Transmissions != b.Transmissions {
			t.Fatalf("src %d: HPF period-1 %d/%d vs blind %d/%d",
				src, h.Scope, h.Transmissions, b.Scope, b.Transmissions)
		}
		if math.Abs(h.TrafficCost-b.TrafficCost) > 1e-6 {
			t.Fatalf("src %d: traffic %v vs %v", src, h.TrafficCost, b.TrafficCost)
		}
	}
}

func TestHPFPartialReducesTransmissions(t *testing.T) {
	net, _ := buildACENet(t, 97, 150, 8, 1, 0)
	rng := sim.NewRNG(98)
	full := HybridPeriodicalFlood(net, rng.Derive("a"), 0, 64, 2, 1, HPFRandom, nil)
	partial := HybridPeriodicalFlood(net, rng.Derive("b"), 0, 64, 2, 2, HPFRandom, nil)
	if partial.Transmissions >= full.Transmissions {
		t.Fatalf("partial flooding sent %d >= full %d", partial.Transmissions, full.Transmissions)
	}
	if partial.Scope < 100 {
		t.Fatalf("partial flooding scope collapsed: %d", partial.Scope)
	}
}

func TestHPFNearestPrefersCheapLinks(t *testing.T) {
	// Star: 0 connected to 1@1, 2@2, 3@100, plus chain links so the far
	// node stays reachable. Nearest selection with fanout 2 must skip
	// the expensive link on partial hops.
	net := lineNet(t, []int{0, 1, 2, 100})
	net.Connect(0, 1)
	net.Connect(0, 2)
	net.Connect(0, 3)
	net.Connect(2, 3)
	rng := sim.NewRNG(99)
	// period 2: hop 0 is full... make hop 0 partial by using period 2
	// and checking hop 1 behaviour instead. Simplest: period such that
	// hop 0 is partial (hop%period != 0 is false for hop 0) — hop 0 is
	// always full by construction, so test via a relay: src 1 at hop 0
	// floods to 0; relay 0 at hop 1 (partial) picks its 2 cheapest of
	// {2, 3} ∪ {} minus sender.
	r := HybridPeriodicalFlood(net, rng, 1, 64, 1, 2, HPFNearest, nil)
	// Relay 0 forwards to exactly one neighbor (fanout 1): the cheapest,
	// peer 2. Peer 3 is then reached via 2 (hop 2, full).
	if r.Scope != 4 {
		t.Fatalf("Scope = %d, want 4", r.Scope)
	}
	// Relay 0 must pick peer 2 (cost 2), not peer 3 (cost 100): the
	// query reaches 3 via 2→3 (98), and 3's full-hop duplicate back to
	// 0 costs 100. Total: 1 + 2 + 98 + 100 = 201. Had 0 forwarded to 3
	// directly, the trace would differ (1 + 100 + 98 + ... ).
	if r.TrafficCost != 201 {
		t.Fatalf("TrafficCost = %v, want 201 (nearest-first relay path)", r.TrafficCost)
	}
	if r.Arrival[2] >= r.Arrival[3] {
		t.Fatal("peer 2 must be reached before 3 (via the cheap link)")
	}
}

func TestHPFDeadSourceAndClamps(t *testing.T) {
	net := lineNet(t, []int{0, 1})
	net.Connect(0, 1)
	net.Leave(0)
	rng := sim.NewRNG(100)
	if r := HybridPeriodicalFlood(net, rng, 0, 8, 2, 2, HPFRandom, nil); r.Scope != 0 {
		t.Fatalf("dead source: %+v", r)
	}
	alive := lineNet(t, []int{0, 1})
	alive.Connect(0, 1)
	// fanout/period clamp to 1.
	r := HybridPeriodicalFlood(alive, rng, 0, 8, 0, 0, HPFRandom, map[overlay.PeerID]bool{1: true})
	if r.Scope != 2 || r.FirstResponse != 2 {
		t.Fatalf("clamped run: %+v", r)
	}
}

// TestHPFDeadLetters: over crash debris HPF pays for the copy sent to
// the crashed peer and drops it — the peer never arrives and relays
// nothing — matching Evaluate on the same chain.
func TestHPFDeadLetters(t *testing.T) {
	net := chainNet(t, 6)
	net.Crash(3)
	r := HybridPeriodicalFlood(net, sim.NewRNG(5), 0, 64, 2, 1, HPFRandom, nil)
	if _, ok := r.Arrival[3]; ok {
		t.Fatal("crashed peer 3 arrived")
	}
	if r.Scope != 3 || r.DeadLetters != 1 {
		t.Fatalf("scope %d, dead letters %d; want 3 and 1 (the chain is severed at peer 3)", r.Scope, r.DeadLetters)
	}
	if got := r.Scope - 1 + r.Duplicates + r.DeadLetters; got != r.Transmissions {
		t.Fatalf("conservation broke: scope−1 %d + duplicates %d + dead letters %d = %d, transmissions %d",
			r.Scope-1, r.Duplicates, r.DeadLetters, got, r.Transmissions)
	}
}
