package gnutella

import (
	"runtime"
	"strings"
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

// TestFloodCountersIgnoreGC: a flood's registry footprint is a function
// of the flood alone, so a fixed-seed run's snapshot repeats. The same
// floods run twice with obs on, the second time with two garbage
// collections before each flood, which empty the kernel pool (a
// sync.Pool drops its items over two cycles); every ace.gnutella.*
// instrument must move by the same amount in both batches.
func TestFloodCountersIgnoreGC(t *testing.T) {
	if !obs.Enabled() {
		obs.Enable()
		defer obs.Disable()
	}
	net, opt := diffNet(t, 24, 1)
	srcs := net.AlivePeers()[:4]
	// tally sums each ace.gnutella.* instrument's value, count and sum.
	tally := func() map[string][3]int64 {
		m := map[string][3]int64{}
		for _, s := range obs.Default().Snapshot() {
			if strings.HasPrefix(s.Name, "ace.gnutella.") {
				v := m[s.Name]
				m[s.Name] = [3]int64{v[0] + s.Value, v[1] + int64(s.Count), v[2] + int64(s.Sum)}
			}
		}
		return m
	}
	batch := func(gc bool) map[string][3]int64 {
		before := tally()
		for _, src := range srcs {
			if gc {
				runtime.GC()
				runtime.GC()
			}
			Evaluate(net, core.BlindFlooding{Net: net}, src, 1<<20, nil)
			Evaluate(net, core.TreeForwarding{Opt: opt}, src, 1<<20, nil)
		}
		d := tally()
		for name, v := range before {
			w := d[name]
			d[name] = [3]int64{w[0] - v[0], w[1] - v[1], w[2] - v[2]}
		}
		return d
	}
	warm, cold := batch(false), batch(true)
	if warm["ace.gnutella.floods"][0] != int64(2*len(srcs)) {
		t.Fatalf("floods moved by %d, want %d", warm["ace.gnutella.floods"][0], 2*len(srcs))
	}
	for name, w := range warm {
		if c := cold[name]; c != w {
			t.Errorf("%s moved by %v (value, count, sum) with a warm pool, %v with an emptied one", name, w, c)
		}
	}
}
