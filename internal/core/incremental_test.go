package core

import (
	"reflect"
	"runtime"
	"testing"

	"ace/internal/fault"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// diffSide is one half of a differential run: a network plus an optimizer
// over it, with dedicated RNG streams so the incremental and full sides
// draw identical random sequences as long as their networks agree.
type diffSide struct {
	net   *overlay.Network
	opt   *Optimizer
	churn *sim.RNG
	round *sim.RNG
}

func newDiffSide(t *testing.T, seed int64, cfg Config) *diffSide {
	t.Helper()
	rng := sim.NewRNG(seed)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(400))
	if err != nil {
		t.Fatal(err)
	}
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), 400, 260)
	if err != nil {
		t.Fatal(err)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(phys.Graph, 0), attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := overlay.GenerateRandom(rng.Derive("gen"), net, 4); err != nil {
		t.Fatal(err)
	}
	// Kill a block of peers so churn has a dead pool to rejoin from.
	for p := 200; p < 260; p++ {
		net.Leave(overlay.PeerID(p))
	}
	opt, err := NewOptimizer(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &diffSide{
		net:   net,
		opt:   opt,
		churn: sim.NewRNG(seed + 1),
		round: sim.NewRNG(seed + 2),
	}
}

// churnStep removes k random live peers and rejoins k random dead ones.
func (s *diffSide) churnStep(k int) {
	n := s.net.N()
	for i := 0; i < k; i++ {
		var live, dead []overlay.PeerID
		for p := 0; p < n; p++ {
			if s.net.Alive(overlay.PeerID(p)) {
				live = append(live, overlay.PeerID(p))
			} else {
				dead = append(dead, overlay.PeerID(p))
			}
		}
		s.net.Leave(live[s.churn.Intn(len(live))])
		s.net.Join(s.churn, dead[s.churn.Intn(len(dead))], 3)
	}
}

func requireSameStates(t *testing.T, round int, inc, full *Optimizer, n int) {
	t.Helper()
	for p := 0; p < n; p++ {
		pid := overlay.PeerID(p)
		a, b := inc.State(pid), full.State(pid)
		if (a == nil) != (b == nil) {
			t.Fatalf("round %d: peer %d present in one side only (inc=%v full=%v)",
				round, p, a != nil, b != nil)
		}
		if a != nil && !reflect.DeepEqual(a, b) {
			t.Fatalf("round %d: peer %d state diverged\nincremental: %+v\nfull:        %+v",
				round, p, a, b)
		}
	}
}

// stripTiming zeroes the wall-clock phase fields, which legitimately
// differ between runs, plus the shard-layout fields (shard count and
// rebuild imbalance are functions of the configured shard count, which
// the sharded determinism tests deliberately vary); everything else in
// a StepReport must match bit-for-bit.
func stripTiming(r StepReport) StepReport {
	r.RebuildNanos, r.Phase3Nanos, r.RepairNanos, r.MergeNanos = 0, 0, 0, 0
	r.MergeSortNanos = 0
	r.Shards, r.ShardImbalance, r.ProposeImbalance = 0, 0, 0
	// Repair diagnostics are engine bookkeeping like the shard fields:
	// the repaired trees are bit-identical to dense rebuilds, but how
	// many states took which path differs across engine configs.
	r.RepairHits, r.RepairFallbacks, r.AttachOps, r.SwapOps = 0, 0, 0, 0
	return r
}

func requireSameEdges(t *testing.T, round int, inc, full *overlay.Network) {
	t.Helper()
	ea, eb := inc.SnapshotEdges(), full.SnapshotEdges()
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("round %d: overlays diverged (%d vs %d edges)", round, len(ea), len(eb))
	}
}

// TestIncrementalMatchesFullRebuild is the tentpole's differential proof:
// two identically seeded systems run the same churn workload for 200+
// rounds, one reconstructing Phase 1–2 state incrementally from the
// mutation journal and one rebuilding everything every round. Every
// PeerState, every StepReport (including the float exchange cost, which
// must match bit-for-bit), and every overlay edge must agree after every
// round.
func TestIncrementalMatchesFullRebuild(t *testing.T) {
	const seed = 20240806
	const rounds = 210

	incCfg := DefaultConfig(2)
	fullCfg := DefaultConfig(2)
	fullCfg.NoIncremental = true

	inc := newDiffSide(t, seed, incCfg)
	full := newDiffSide(t, seed, fullCfg)
	requireSameEdges(t, -1, inc.net, full.net)

	for r := 0; r < rounds; r++ {
		inc.churnStep(2)
		full.churnStep(2)
		ri := stripTiming(inc.opt.Round(inc.round))
		rf := stripTiming(full.opt.Round(full.round))
		if ri != rf {
			t.Fatalf("round %d: reports diverged\nincremental: %+v\nfull:        %+v", r, ri, rf)
		}
		requireSameStates(t, r, inc.opt, full.opt, inc.net.N())
		requireSameEdges(t, r, inc.net, full.net)
	}

	is, fs := inc.opt.RebuildStats(), full.opt.RebuildStats()
	if is.Incremental < rounds-10 {
		t.Fatalf("incremental path barely ran: %+v", is)
	}
	if fs.Incremental != 0 || fs.Full != rounds {
		t.Fatalf("full side took the incremental path: %+v", fs)
	}
	// No PeersRebuilt assertion here: at this tiny scale Phase 3 rewires
	// edges all over the graph every round, so the dirty region covering
	// most peers is the correct answer. The savings regime is exercised
	// by TestIncrementalChurnOnlySavesWork.
	t.Logf("incremental: %+v, full: %+v", is, fs)
}

// TestIncrementalChurnOnlySavesWork drives only membership churn (no
// Phase 3) and checks that the dirty region stays a small fraction of the
// population while the rebuilt state and exchange cost remain exactly
// equal to the full-rebuild side. This is the steady-state regime the
// incremental engine is built for.
func TestIncrementalChurnOnlySavesWork(t *testing.T) {
	const seed = 9
	const rounds = 200

	incCfg := DefaultConfig(1)
	fullCfg := DefaultConfig(1)
	fullCfg.NoIncremental = true

	inc := newDiffSide(t, seed, incCfg)
	full := newDiffSide(t, seed, fullCfg)

	for r := 0; r < rounds; r++ {
		inc.churnStep(1)
		full.churnStep(1)
		ci := inc.opt.RebuildTrees()
		cf := full.opt.RebuildTrees()
		if ci != cf {
			t.Fatalf("round %d: exchange cost diverged: %v vs %v", r, ci, cf)
		}
		requireSameStates(t, r, inc.opt, full.opt, inc.net.N())
	}

	is, fs := inc.opt.RebuildStats(), full.opt.RebuildStats()
	if is.Incremental < rounds-10 {
		t.Fatalf("incremental path barely ran: %+v", is)
	}
	if is.PeersRebuilt*2 >= fs.PeersRebuilt {
		t.Fatalf("incremental rebuilt %d peers vs full %d; dirty regions are not saving work",
			is.PeersRebuilt, fs.PeersRebuilt)
	}
	t.Logf("churn-only: incremental %+v vs full %+v", is, fs)
}

// TestIncrementalChurnOnlySavesWorkDepth2 is the h=2 companion of the
// churn-only check. Before the reverse closure index, an h-hop expansion
// from the churned peers' neighborhoods dirtied a large share of a
// 260-peer population at Depth=2; the index resolves the exact affected
// set, so the incremental side must both stay bit-identical to the full
// side and rebuild well under half as many peers.
func TestIncrementalChurnOnlySavesWorkDepth2(t *testing.T) {
	const seed = 13
	const rounds = 120

	incCfg := DefaultConfig(2)
	fullCfg := DefaultConfig(2)
	fullCfg.NoIncremental = true

	inc := newDiffSide(t, seed, incCfg)
	full := newDiffSide(t, seed, fullCfg)

	for r := 0; r < rounds; r++ {
		inc.churnStep(1)
		full.churnStep(1)
		ci := inc.opt.RebuildTrees()
		cf := full.opt.RebuildTrees()
		if ci != cf {
			t.Fatalf("round %d: exchange cost diverged: %v vs %v", r, ci, cf)
		}
		requireSameStates(t, r, inc.opt, full.opt, inc.net.N())
	}

	is, fs := inc.opt.RebuildStats(), full.opt.RebuildStats()
	if is.Incremental < rounds-10 {
		t.Fatalf("incremental path barely ran at h=2: %+v", is)
	}
	if is.PeersRebuilt*2 >= fs.PeersRebuilt {
		t.Fatalf("h=2 incremental rebuilt %d peers vs full %d; the reverse index is not saving work",
			is.PeersRebuilt, fs.PeersRebuilt)
	}
	t.Logf("h=2 churn-only: incremental %+v vs full %+v", is, fs)
}

// TestBuildStatesParallelMatchesSerial pins down the rebuild pool's
// determinism: with GOMAXPROCS forced to 1 the pool degenerates to the
// serial loop, and the states it commits must be exactly what the
// parallel pool produces — across the initial full rebuild and a run of
// incremental rounds exercising the per-worker scratch arenas.
func TestBuildStatesParallelMatchesSerial(t *testing.T) {
	cfg := DefaultConfig(2)
	par := newDiffSide(t, 404, cfg)
	ser := newDiffSide(t, 404, cfg)

	serialRebuild := func() {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		ser.opt.RebuildTrees()
	}

	par.opt.RebuildTrees()
	serialRebuild()
	requireSameStates(t, 0, par.opt, ser.opt, par.net.N())

	for r := 1; r <= 20; r++ {
		par.churnStep(2)
		ser.churnStep(2)
		par.opt.RebuildTrees()
		serialRebuild()
		requireSameStates(t, r, par.opt, ser.opt, par.net.N())
	}
}

// TestRebuildTreesQuiescentIsFree checks the fastest path: with no
// journaled events between rounds, an incremental rebuild reconstructs
// nothing and the exchange cost still prices every live peer.
func TestRebuildTreesQuiescentIsFree(t *testing.T) {
	side := newDiffSide(t, 5, DefaultConfig(2))
	first := side.opt.RebuildTrees()
	before := side.opt.RebuildStats()
	if before.Full != 1 {
		t.Fatalf("first rebuild not full: %+v", before)
	}
	again := side.opt.RebuildTrees()
	after := side.opt.RebuildStats()
	if after.PeersRebuilt != before.PeersRebuilt {
		t.Fatalf("quiescent rebuild reconstructed states: %+v -> %+v", before, after)
	}
	if first != again {
		t.Fatalf("exchange cost drifted while idle: %v vs %v", first, again)
	}
}

// TestIncrementalMatchesFullUnderFaults is the fault-era differential:
// same plan, same churn-plus-crash workload, incremental vs dense-every-
// round. It pins the staleness-readmit path in dirtyRegion — when an
// excluded peer comes back, no cached closure holds it (holders rebuilt
// without it while it was invisible), so its h-hop neighborhood must be
// re-dirtied through the current adjacency or incremental closures
// silently diverge from a full rebuild.
func TestIncrementalMatchesFullUnderFaults(t *testing.T) {
	const seed = 20260808
	const rounds = 80
	plan := fault.Plan{
		Seed:                 99,
		ProbeTimeoutRate:     0.25,
		ConnectFailRate:      0.3,
		UnresponsiveFraction: 0.25,
		UnresponsivePeriod:   6,
	}

	incCfg := DefaultConfig(2)
	fullCfg := DefaultConfig(2)
	fullCfg.NoIncremental = true

	inc := newDiffSide(t, seed, incCfg)
	full := newDiffSide(t, seed, fullCfg)
	inc.net.SetFaults(newInjector(t, plan))
	full.net.SetFaults(newInjector(t, plan))

	var expired int
	for r := 0; r < rounds; r++ {
		churnFaultStep(inc, r)
		churnFaultStep(full, r)
		ri := stripTiming(inc.opt.Round(inc.round))
		rf := stripTiming(full.opt.Round(full.round))
		expired += ri.StaleExpired
		if ri != rf {
			t.Fatalf("round %d: reports diverged\nincremental: %+v\nfull:        %+v", r, ri, rf)
		}
		requireSameStates(t, r, inc.opt, full.opt, inc.net.N())
		requireSameEdges(t, r, inc.net, full.net)
	}
	if expired == 0 {
		t.Fatal("workload never readmitted a stale peer; the test exercises nothing")
	}
}
