package gnutella

import (
	"reflect"
	"testing"

	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/overlay"
)

func lossyInjector(t *testing.T, plan fault.Plan) *fault.Injector {
	t.Helper()
	in, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// chainNet is a 0-1-2-…-(n−1) overlay chain with unit physical hops.
func chainNet(t *testing.T, n int) *overlay.Network {
	t.Helper()
	attach := make([]int, n)
	for i := range attach {
		attach[i] = i
	}
	net := lineNet(t, attach)
	for p := 0; p < n-1; p++ {
		net.Connect(overlay.PeerID(p), overlay.PeerID(p+1))
	}
	return net
}

// TestEvaluateLossConservation: every transmission is paid for and then
// accounted for exactly once — delivered as a first copy, delivered as a
// duplicate, lost in transit, or dead-lettered.
func TestEvaluateLossConservation(t *testing.T) {
	net := chainNet(t, 24)
	net.SetFaults(lossyInjector(t, fault.Plan{Seed: 9, LossRate: 0.3}))
	fwd := core.BlindFlooding{Net: net}

	res := Evaluate(net, fwd, 0, 64, nil)
	if res.Lost == 0 {
		t.Fatal("30% loss over 23 hops lost nothing")
	}
	if res.Scope == 24 {
		t.Fatal("a lossy chain flood still reached everyone")
	}
	delivered := res.Scope - 1 + res.Duplicates // source arrives for free
	if got := delivered + res.Lost + res.DeadLetters; got != res.Transmissions {
		t.Fatalf("conservation broke: delivered %d + lost %d + dead %d = %d, transmissions %d",
			delivered, res.Lost, res.DeadLetters, got, res.Transmissions)
	}
	// The sender pays for lost copies: on a unit chain every send costs 1,
	// so traffic must equal transmissions, not deliveries.
	if res.TrafficCost != float64(res.Transmissions) {
		t.Fatalf("traffic %.1f, want %d (lost sends must still be paid for)",
			res.TrafficCost, res.Transmissions)
	}
}

// TestEvaluateTotalLoss: at LossRate 1 the flood dies on the first hop —
// the scope collapses to the source, yet the attempted sends are billed.
func TestEvaluateTotalLoss(t *testing.T) {
	net := chainNet(t, 8)
	net.SetFaults(lossyInjector(t, fault.Plan{Seed: 2, LossRate: 1}))
	res := Evaluate(net, core.BlindFlooding{Net: net}, 3, 64, nil)
	if res.Scope != 1 {
		t.Fatalf("Scope = %d, want 1 (every copy lost)", res.Scope)
	}
	if res.Lost != res.Transmissions || res.Lost == 0 {
		t.Fatalf("Lost = %d, Transmissions = %d: all sends must be lost", res.Lost, res.Transmissions)
	}
}

// TestEvaluateLossDeterminism: the same plan, seed, and flood produce the
// same result — loss decisions hash message identity, not iteration order.
func TestEvaluateLossDeterminism(t *testing.T) {
	run := func() QueryResult {
		net := chainNet(t, 24)
		net.SetFaults(lossyInjector(t, fault.Plan{Seed: 9, LossRate: 0.3, DelayJitter: 0.2}))
		return Evaluate(net, core.BlindFlooding{Net: net}, 0, 64, map[overlay.PeerID]bool{20: true})
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("lossy flood not reproducible:\n%+v\n%+v", a, b)
	}
}

// TestEvaluateJitterBounds: DelayJitter j perturbs each hop by a factor
// in [1−j, 1+j]; total arrival times stay within the compounded envelope
// and traffic accounting is untouched (jitter delays, it does not bill).
func TestEvaluateJitterBounds(t *testing.T) {
	const n, j = 12, 0.25
	net := chainNet(t, n)
	base := Evaluate(net, core.BlindFlooding{Net: net}, 0, 64, nil)
	net.SetFaults(lossyInjector(t, fault.Plan{Seed: 5, DelayJitter: j}))
	res := Evaluate(net, core.BlindFlooding{Net: net}, 0, 64, nil)

	if res.TrafficCost != base.TrafficCost || res.Transmissions != base.Transmissions {
		t.Fatalf("pure jitter changed traffic: %+v vs %+v", res, base)
	}
	var jittered bool
	for p, at := range res.Arrival {
		b := base.Arrival[p]
		if at < b*(1-j)-1e-9 || at > b*(1+j)+1e-9 {
			t.Fatalf("peer %d arrived at %.3f, outside [%.3f, %.3f]", p, at, b*(1-j), b*(1+j))
		}
		if at != b {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("jitter plan moved no arrival at all")
	}
}

// TestEvaluateDeadLetters: flooding over crash debris (a neighbor died,
// its half-open edges not yet purged) pays for the send to the dead peer
// and drops the delivery — without an injector attached at all.
func TestEvaluateDeadLetters(t *testing.T) {
	net := chainNet(t, 6)
	net.Crash(3)
	if net.Dangling() == 0 {
		t.Fatal("crash left no debris to flood over")
	}
	res := Evaluate(net, core.BlindFlooding{Net: net}, 0, 64, nil)
	if res.DeadLetters == 0 {
		t.Fatal("flood over debris produced no dead letters")
	}
	if _, ok := res.Arrival[3]; ok {
		t.Fatal("dead peer arrived")
	}
	if res.Scope != 3 { // 0,1,2 — the chain is severed at the crash
		t.Fatalf("Scope = %d, want 3", res.Scope)
	}
	delivered := res.Scope - 1 + res.Duplicates
	if delivered+res.Lost+res.DeadLetters != res.Transmissions {
		t.Fatalf("conservation broke over debris: %+v", res)
	}
}
