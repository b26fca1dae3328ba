package core

import (
	"strings"
	"testing"

	"ace/internal/fault"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// stripNanos zeroes only the wall-clock fields. Unlike stripTiming, the
// shard-layout and repair diagnostics stay in: the restored engine runs
// the same config as the uninterrupted one, so even the bookkeeping —
// which peers took the repair path, how imbalanced the shards were —
// must reproduce exactly.
func stripNanos(r StepReport) StepReport {
	r.RebuildNanos, r.Phase3Nanos, r.RepairNanos = 0, 0, 0
	r.MergeNanos, r.MergeSortNanos = 0, 0
	return r
}

// churnFaultStep drives one round's workload: leave/join churn every
// round plus a crash every few rounds, so snapshots carry dangling
// debris, host caches, and a journal with every event kind.
func churnFaultStep(s *diffSide, r int) {
	s.churnStep(1)
	if r%7 == 3 {
		live := s.net.AlivePeers()
		s.net.Crash(live[s.churn.Intn(len(live))])
	}
}

// restoreSide builds the process-equivalent engine: topology regenerated
// from the seed (nothing shared with the original but the snapshot
// values), network restored from the overlay snapshot, a fresh optimizer
// with the state snapshot installed, a fresh injector from the same
// plan, and RNG streams fast-forwarded to the captured positions.
func restoreSide(t *testing.T, seed int64, cfg Config, plan *fault.Plan, from *diffSide) *diffSide {
	t.Helper()
	rng := sim.NewRNG(seed)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(400))
	if err != nil {
		t.Fatal(err)
	}
	net, err := overlay.RestoreNetwork(physical.NewOracle(phys.Graph), from.net.SnapshotState())
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		net.SetFaults(newInjector(t, *plan))
	}
	opt, err := NewOptimizer(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.RestoreState(from.opt.SnapshotState()); err != nil {
		t.Fatal(err)
	}
	churn := sim.NewRNG(seed + 1)
	round := sim.NewRNG(seed + 2)
	if err := churn.SkipTo(from.churn.Pos()); err != nil {
		t.Fatal(err)
	}
	if err := round.SkipTo(from.round.Pos()); err != nil {
		t.Fatal(err)
	}
	return &diffSide{net: net, opt: opt, churn: churn, round: round}
}

// TestRestoreResumeMatchesUninterrupted is the crash-safety acceptance
// test: run k rounds under churn + fault injection, snapshot, restore
// into a fresh process-equivalent engine, and run both sides to k+n.
// Every StepReport field (nanos aside), every PeerState, and every
// overlay edge must stay bit-identical — restoring is indistinguishable
// from never having stopped.
func TestRestoreResumeMatchesUninterrupted(t *testing.T) {
	const seed = 20260808
	const k, n = 60, 40
	plan := &fault.Plan{
		Seed:                 99,
		ProbeTimeoutRate:     0.25,
		ConnectFailRate:      0.3,
		UnresponsiveFraction: 0.25,
		UnresponsivePeriod:   6,
	}

	for _, shards := range []int{0, 1, 8} {
		t.Run(map[int]string{0: "serial", 1: "shards=1", 8: "shards=8"}[shards], func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.Shards = shards

			orig := newDiffSide(t, seed, cfg)
			orig.net.SetFaults(newInjector(t, *plan))
			var timeouts, failedDials int
			for r := 0; r < k; r++ {
				churnFaultStep(orig, r)
				rep := orig.opt.Round(orig.round)
				timeouts += rep.ProbeTimeouts
				failedDials += rep.FailedConnects
			}
			if timeouts == 0 || failedDials == 0 {
				t.Fatalf("fault plan injected nothing before the snapshot (timeouts=%d dials=%d)",
					timeouts, failedDials)
			}
			// Snapshots are taken at a rebuild boundary, as after every
			// ace.System.Optimize burst (its trailing RebuildTrees).
			orig.opt.RebuildTrees()
			if st := orig.opt.SnapshotState(); len(st.StaleFor) != orig.net.N() {
				t.Fatalf("snapshot carries no fault arrays (%d entries)", len(st.StaleFor))
			}

			rest := restoreSide(t, seed, cfg, plan, orig)
			requireSameStates(t, k, orig.opt, rest.opt, orig.net.N())
			requireSameEdges(t, k, orig.net, rest.net)

			for r := k; r < k+n; r++ {
				churnFaultStep(orig, r)
				churnFaultStep(rest, r)
				ro := stripNanos(orig.opt.Round(orig.round))
				rr := stripNanos(rest.opt.Round(rest.round))
				if ro != rr {
					t.Fatalf("round %d: reports diverged\nuninterrupted: %+v\nrestored:      %+v", r, ro, rr)
				}
				requireSameStates(t, r, orig.opt, rest.opt, orig.net.N())
				requireSameEdges(t, r, orig.net, rest.net)
			}
			if a, b := orig.opt.TotalOverhead(), rest.opt.TotalOverhead(); a != b {
				t.Fatalf("total overhead diverged: %v vs %v", a, b)
			}
			if a, b := orig.opt.RebuildStats(), rest.opt.RebuildStats(); a != b {
				t.Fatalf("rebuild stats diverged: %+v vs %+v", a, b)
			}
			if a, b := orig.opt.PendingCuts(), rest.opt.PendingCuts(); a != b {
				t.Fatalf("pending cuts diverged: %d vs %d", a, b)
			}
		})
	}
}

// TestRestoreResumeCleanRun covers the no-injector path: the snapshot's
// fault arrays are empty and restore must keep them unsized, so the
// clean-run fast paths stay untouched after a restore.
func TestRestoreResumeCleanRun(t *testing.T) {
	const seed = 31
	const k, n = 40, 20
	cfg := DefaultConfig(1)

	orig := newDiffSide(t, seed, cfg)
	for r := 0; r < k; r++ {
		orig.churnStep(2)
		orig.opt.Round(orig.round)
	}
	orig.opt.RebuildTrees()
	st := orig.opt.SnapshotState()
	if len(st.StaleFor) != 0 {
		t.Fatalf("clean run grew fault arrays (%d entries)", len(st.StaleFor))
	}

	rest := restoreSide(t, seed, cfg, nil, orig)
	for r := k; r < k+n; r++ {
		orig.churnStep(2)
		rest.churnStep(2)
		ro := stripNanos(orig.opt.Round(orig.round))
		rr := stripNanos(rest.opt.Round(rest.round))
		if ro != rr {
			t.Fatalf("round %d: reports diverged\nuninterrupted: %+v\nrestored:      %+v", r, ro, rr)
		}
		requireSameStates(t, r, orig.opt, rest.opt, orig.net.N())
		requireSameEdges(t, r, orig.net, rest.net)
	}
}

func TestRestoreStateRejectsCorruptState(t *testing.T) {
	side := newDiffSide(t, 5, DefaultConfig(1))
	side.net.SetFaults(newInjector(t, fault.Plan{Seed: 1, ProbeTimeoutRate: 0.3}))
	for r := 0; r < 10; r++ {
		side.churnStep(1)
		side.opt.Round(side.round)
	}
	side.opt.RebuildTrees() // snapshots are taken at a rebuild boundary

	cases := []struct {
		name   string
		mutate func(st *OptState)
		want   string
	}{
		{"negative round", func(st *OptState) { st.RoundNum = -1 }, "negative round"},
		{"fault array sizes", func(st *OptState) { st.Excluded = st.Excluded[:1] }, "sizes disagree"},
		{"fault array length", func(st *OptState) {
			st.StaleFor = st.StaleFor[:1]
			st.Excluded = st.Excluded[:1]
			st.DialFails = st.DialFails[:1]
			st.BlackExp = st.BlackExp[:1]
			st.BlackUntil = st.BlackUntil[:1]
		}, "sized 1 for"},
		{"cursor out of window", func(st *OptState) { st.Cursor = st.Cursor + 1<<40 }, "journal window"},
		{"pending out of range", func(st *OptState) {
			st.Pending = []PendingEntry{{A: overlay.PeerID(side.net.N()), B: 0, H: 1, TTL: 1}}
		}, "out of range"},
		{"pending ttl", func(st *OptState) {
			st.Pending = []PendingEntry{{A: 0, B: 1, H: 2, TTL: PendingTTL + 1}}
		}, "ttl"},
		{"pending unsorted", func(st *OptState) {
			st.Pending = []PendingEntry{{A: 1, B: 2, H: 3, TTL: 1}, {A: 0, B: 1, H: 2, TTL: 1}}
		}, "ascending"},
		{"pending over cap", func(st *OptState) {
			st.Pending = []PendingEntry{
				{A: 0, B: 1, H: 2, TTL: 1}, {A: 0, B: 2, H: 3, TTL: 1}, {A: 0, B: 3, H: 4, TTL: 1},
			}
		}, "pending experiments"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := side.opt.SnapshotState()
			tc.mutate(st)
			opt, err := NewOptimizer(side.net, side.opt.Config())
			if err != nil {
				t.Fatal(err)
			}
			if err := opt.RestoreState(st); err == nil {
				t.Fatal("corrupt state accepted")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
