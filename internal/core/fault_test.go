package core

import (
	"reflect"
	"testing"

	"ace/internal/fault"
	"ace/internal/overlay"
	"ace/internal/sim"
)

func newInjector(t *testing.T, plan fault.Plan) *fault.Injector {
	t.Helper()
	in, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestFaultNilInjectorDoesNotPerturb pins the fault layer's core
// contract: attaching an injector whose plan injects nothing leaves a
// churned run bit-identical to one with no injector at all — the same
// differential discipline TestObsEnabledDoesNotPerturb established for
// observability.
func TestFaultNilInjectorDoesNotPerturb(t *testing.T) {
	const seed = 77
	const rounds = 60
	cfg := DefaultConfig(1)

	run := func(attach bool) (reports []StepReport, edges any) {
		s := newDiffSide(t, seed, cfg)
		if attach {
			s.net.SetFaults(newInjector(t, fault.Plan{Seed: 123}))
		}
		for r := 0; r < rounds; r++ {
			s.churnStep(2)
			reports = append(reports, stripTiming(s.opt.Round(s.round)))
		}
		return reports, s.net.SnapshotEdges()
	}

	offReports, offEdges := run(false)
	onReports, onEdges := run(true)

	for r := range offReports {
		if offReports[r] != onReports[r] {
			t.Fatalf("round %d: zero-plan injector diverged\nnil: %+v\nzero: %+v",
				r, offReports[r], onReports[r])
		}
	}
	if !reflect.DeepEqual(offEdges, onEdges) {
		t.Fatal("zero-plan injector produced a different overlay")
	}
}

// faultNet is a 5-peer ring over the line oracle with an optimizer in a
// given config; every peer has degree 2.
func faultNet(t *testing.T, cfg Config) (*overlay.Network, *Optimizer) {
	t.Helper()
	net := lineNet(t, []int{0, 2, 4, 6, 8})
	for p := 0; p < 5; p++ {
		net.Connect(overlay.PeerID(p), overlay.PeerID((p+1)%5))
	}
	opt, err := NewOptimizer(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net, opt
}

// TestProbeRetriesExhaust: with every probe timing out, each of the
// ring's 10 directed (prober, target) pairs spends all probeRetries
// retries, and since nobody reaches anybody every peer goes stale.
func TestProbeRetriesExhaust(t *testing.T) {
	net, opt := faultNet(t, DefaultConfig(1))
	net.SetFaults(newInjector(t, fault.Plan{Seed: 1, ProbeTimeoutRate: 1}))
	rep := opt.Round(sim.NewRNG(3))

	t.Run("retries", func(t *testing.T) {
		if want := 10 * probeRetries; rep.ProbeRetries != want {
			t.Fatalf("ProbeRetries = %d, want %d (10 pairs × %d)", rep.ProbeRetries, want, probeRetries)
		}
	})
	t.Run("stale", func(t *testing.T) {
		if rep.StaleMarked != 5 {
			t.Fatalf("StaleMarked = %d, want 5 (every peer unreached)", rep.StaleMarked)
		}
		if rep.ProbeTimeouts < 5 {
			t.Fatalf("ProbeTimeouts = %d, want >= 5", rep.ProbeTimeouts)
		}
	})
}

// TestStaleTTLBoundary: a peer whose probes all fail is served
// last-known-good through TTL−1 cycles — its neighbors' closures still
// include it — and is excluded exactly at TTL.
func TestStaleTTLBoundary(t *testing.T) {
	net, opt := faultNet(t, DefaultConfig(1))
	net.SetFaults(newInjector(t, fault.Plan{Seed: 1, ProbeTimeoutRate: 1}))

	rng := sim.NewRNG(3)
	for r := 1; r <= 2; r++ { // staleFor reaches TTL−1 = 2
		rep := opt.Round(rng)
		if rep.StaleExpired != 0 {
			t.Fatalf("round %d: expired before TTL", r)
		}
		if st := opt.State(0); len(st.Closure) != 3 {
			t.Fatalf("round %d (stale age %d < TTL): closure %v, want full",
				r, r, st.Closure)
		}
	}
	rep := opt.Round(rng) // staleFor crosses TTL = 3
	if rep.StaleExpired != 5 {
		t.Fatalf("StaleExpired = %d, want 5", rep.StaleExpired)
	}
	for p := 0; p < 5; p++ {
		st := opt.State(overlay.PeerID(p))
		if len(st.Closure) != 1 || len(st.NonFlooding) != 0 || len(st.FloodingView()) != 0 {
			t.Fatalf("peer %d not fully degraded at TTL: closure %v", p, st.Closure)
		}
	}
	// Degradation is graceful, not destructive: the connections are all
	// still there, only the trees shrank around the silence.
	if !net.IsConnected() {
		t.Fatal("staleness exclusion cut real edges")
	}

	// Recovery: probes answer again, peers are readmitted and the
	// closures regrow the same round.
	net.SetFaults(newInjector(t, fault.Plan{Seed: 1}))
	opt.Round(rng)
	if st := opt.State(0); len(st.Closure) != 3 {
		t.Fatalf("closure after recovery %v, want full", st.Closure)
	}
}

// TestBlacklistBackoff drives noteDialFailure directly: a peer is
// blacklisted after blacklistAfter consecutive failures, for a duration
// that doubles per re-blacklisting up to blacklistCap, and a successful
// dial clears the whole history.
func TestBlacklistBackoff(t *testing.T) {
	net, opt := faultNet(t, DefaultConfig(1))
	net.SetFaults(newInjector(t, fault.Plan{Seed: 1}))
	opt.ensureFaultState()
	opt.roundNum = 10
	const h = overlay.PeerID(3)

	opt.noteDialFailure(h)
	if opt.blacklisted(h) {
		t.Fatal("blacklisted after one failure (blacklistAfter=2)")
	}
	opt.noteDialFailure(h)
	if !opt.blacklisted(h) {
		t.Fatal("not blacklisted after the streak")
	}
	// Expiry boundary: base duration 2 → blacklisted in rounds 10 and
	// 11, free again at 12.
	opt.roundNum = 11
	if !opt.blacklisted(h) {
		t.Fatal("expired one round early")
	}
	opt.roundNum = 12
	if opt.blacklisted(h) {
		t.Fatal("blacklist outlived its duration")
	}

	// Each later streak doubles the duration until it saturates at the
	// cap of 16 rounds, where it stays.
	for i, want := range []int{4, 8, 16, 16} {
		opt.roundNum += 20
		opt.noteDialFailure(h)
		opt.noteDialFailure(h)
		if got := int(opt.blackUntil[h]) - opt.roundNum; got != want {
			t.Fatalf("blacklisting %d: duration %d, want %d", i+2, got, want)
		}
	}

	// A successful dial clears both the streak and the exponent.
	opt.roundNum += 20
	if !opt.tryConnect(overlay.PeerID(1), h, &StepReport{}) {
		t.Fatal("clean dial failed")
	}
	opt.noteDialFailure(h)
	opt.noteDialFailure(h)
	if got := int(opt.blackUntil[h]) - opt.roundNum; got != 2 {
		t.Fatalf("post-success blacklist duration %d, want base 2", got)
	}
}

// TestCrashDebrisPurgedWithinOneRound: crashed peers' half-open edges
// are detected (via the timed-out probe, which is paid for) and purged
// in the next round, and minimum-degree repair re-knits the survivors.
func TestCrashDebrisPurgedWithinOneRound(t *testing.T) {
	net := randomNet(t, 71, 200, 100, 6)
	opt := newOpt(t, net, 1)
	rng := sim.NewRNG(5)
	opt.Round(rng)

	for _, p := range []overlay.PeerID{3, 17, 42} {
		net.Crash(p)
	}
	debris := net.Dangling()
	if debris == 0 {
		t.Fatal("crashes left no dangling edges")
	}
	overheadBefore := opt.TotalOverhead()
	rep := opt.Round(rng)
	if net.Dangling() != 0 {
		t.Fatalf("%d dangling edges survived the round", net.Dangling())
	}
	if rep.PurgedEdges != debris {
		t.Fatalf("PurgedEdges = %d, want %d", rep.PurgedEdges, debris)
	}
	if rep.ProbeTimeouts < debris {
		t.Fatalf("ProbeTimeouts = %d, want >= %d (one failed probe per purge)",
			rep.ProbeTimeouts, debris)
	}
	if opt.TotalOverhead() <= overheadBefore {
		t.Fatal("failed probes were free")
	}
	if !net.IsConnected() {
		t.Fatal("overlay fragmented after crash cleanup")
	}
	// The purged references never reappear in rebuilt closures.
	for p := 0; p < net.N(); p++ {
		st := opt.State(overlay.PeerID(p))
		if st == nil {
			continue
		}
		for _, m := range st.Closure {
			if !net.Alive(m) {
				t.Fatalf("peer %d's closure holds dead peer %d", p, m)
			}
		}
	}
}
