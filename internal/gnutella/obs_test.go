package gnutella

import (
	"testing"

	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/obs"
	"ace/internal/overlay"
)

// TestObserveFloodSettleConservation: every send of a flood is queued on
// the event heap, settled at send time, or lost in transit, so
// heap.pushes + settled + lost = sends holds flood by flood — on a clean
// flood, a lossy one, and one over crash debris. Each flood must also
// settle something, or the identity says nothing about the settle rule.
func TestObserveFloodSettleConservation(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	flood := func(name string, net *overlay.Network, fwd core.Forwarder) QueryResult {
		t.Helper()
		counters := []*obs.Counter{cSends, cHeapPushes, cSettled, cMsgLost, cDuplicates, cDeadLetters}
		before := make([]uint64, len(counters))
		for i, c := range counters {
			before[i] = c.Value()
		}
		res := Evaluate(net, fwd, net.AlivePeers()[0], 1<<20, nil)
		d := make([]uint64, len(counters))
		for i, c := range counters {
			d[i] = c.Value() - before[i]
		}
		sends, pushes, settled, lost, dups, dead := d[0], d[1], d[2], d[3], d[4], d[5]
		if sends != uint64(res.Transmissions) || lost != uint64(res.Lost) ||
			dups != uint64(res.Duplicates) || dead != uint64(res.DeadLetters) {
			t.Fatalf("%s: counters sends %d lost %d duplicates %d dead %d, result %+v",
				name, sends, lost, dups, dead, res)
		}
		if pushes+settled+lost != sends {
			t.Fatalf("%s: heap.pushes %d + settled %d + lost %d != sends %d",
				name, pushes, settled, lost, sends)
		}
		if settled == 0 {
			t.Fatalf("%s: nothing settled in %d sends", name, sends)
		}
		return res
	}

	net, opt := diffNet(t, 21, 1)
	flood("clean/blind", net, core.BlindFlooding{Net: net})
	flood("clean/tree", net, core.TreeForwarding{Opt: opt})

	net, opt = diffNet(t, 22, 1)
	net.SetFaults(lossyInjector(t, fault.Plan{Seed: 3, LossRate: 0.05, DelayJitter: 0.2}))
	if flood("lossy/blind", net, core.BlindFlooding{Net: net}).Lost == 0 {
		t.Fatal("lossy flood lost nothing")
	}
	flood("lossy/tree", net, core.TreeForwarding{Opt: opt})

	net, opt = diffNet(t, 23, 1)
	alive := net.AlivePeers()
	for i := 1; i < len(alive); i += 10 {
		net.Crash(alive[i])
	}
	if flood("debris/blind", net, core.BlindFlooding{Net: net}).DeadLetters == 0 {
		t.Fatal("flood over crash debris dead-lettered nothing")
	}
	flood("debris/tree", net, core.TreeForwarding{Opt: opt})
}
