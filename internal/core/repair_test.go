package core

import (
	"testing"

	"ace/internal/fault"
)

// runRepairDifferential drives two identically seeded systems — one with
// the incremental MST repair kernel enabled, one taking the full rebuild
// every round (every live state from scratch with dense Prim, so the
// dirty region is checked too) — through churned rounds and requires
// bit-identical trajectories: every StepReport (including the float
// traffic sums), every PeerState (closure order, tree adjacency, the
// float32 edge-cost mirror), every overlay edge. The canonical MST is
// unique, so any divergence is a repair-kernel or dirty-region bug, not
// a tie-break artifact. Returns the repair side's total hit count so
// callers can assert the test exercised the kernel rather than
// vacuously falling back.
func runRepairDifferential(t *testing.T, seed int64, shards, rounds int, plan *fault.Plan) int {
	t.Helper()
	cfg := DefaultConfig(1)
	cfg.Shards = shards

	rep := newDiffSide(t, seed, cfg)
	ref := newRefSide(t, seed, cfg)
	if plan != nil {
		rep.net.SetFaults(newInjector(t, *plan))
		ref.net.SetFaults(newInjector(t, *plan))
	}

	var hits int
	for r := 0; r < rounds; r++ {
		rep.churnStep(2)
		ref.churnStep(2)
		rr := rep.step()
		rf := ref.step()
		hits += rr.RepairHits
		if rf.RepairHits != 0 || rf.AttachOps != 0 || rf.SwapOps != 0 {
			t.Fatalf("round %d: full-rebuild side reported repair activity: %+v", r, rf)
		}
		if stripTiming(rr) != stripTiming(rf) {
			t.Fatalf("round %d: repair and dense rebuild diverged\nrepair: %+v\ndense:  %+v", r, rr, rf)
		}
		requireSameStates(t, r, rep.opt, ref.opt, rep.net.N())
		requireSameEdges(t, r, rep.net, ref.net)
	}
	requireAllFull(t, ref, rounds)
	return hits
}

// TestRepairMatchesDenseRebuild is the repair kernel's differential
// property test: at shard counts {1, 2, 5, 8}, churned rounds with the
// repair path enabled must be bit-identical to the full-rebuild reference —
// per round, per peer, per float. Runs under -race in CI, which also
// exercises the recycled-slab discipline (a replaced state's backing
// arrays may only be reused once nothing can read them).
func TestRepairMatchesDenseRebuild(t *testing.T) {
	const seed = 20260816
	const rounds = 50
	for _, shards := range []int{1, 2, 5, 8} {
		t.Run(shardLabel(shards), func(t *testing.T) {
			hits := runRepairDifferential(t, seed, shards, rounds, nil)
			if hits == 0 {
				t.Fatal("no repair hits in the whole run; the differential is vacuous")
			}
			t.Logf("shards=%d: %d repair hits", shards, hits)
		})
	}
}

// TestRepairMatchesDenseRebuildUnderFaults repeats the differential with
// a fault injector active: probe timeouts drive staleness exclusions,
// whose flip rounds must disable the repair path wholesale (excluded
// peers perturb closures without journaled events, so membership deltas
// alone can no longer classify a repair), and dial failures churn the
// overlay through the blacklist machinery. The trajectories must still
// match the full-rebuild reference bit for bit.
func TestRepairMatchesDenseRebuildUnderFaults(t *testing.T) {
	const seed = 20260817
	const rounds = 50
	plan := fault.Plan{ProbeTimeoutRate: 0.12, ConnectFailRate: 0.08, Seed: 21}
	for _, shards := range []int{1, 2, 5, 8} {
		t.Run(shardLabel(shards), func(t *testing.T) {
			hits := runRepairDifferential(t, seed, shards, rounds, &plan)
			if hits == 0 {
				t.Fatal("no repair hits under faults; the differential is vacuous")
			}
			t.Logf("shards=%d: %d repair hits under faults", shards, hits)
		})
	}
}

// TestRepairDepth2MatchesDenseRebuild covers the h=2 regime, where the
// reverse closure index stays live (revIdle is false): repairs must not
// recycle state slabs out from under the index maintenance that still
// reads replaced closures at commit, and repaired trees must remain
// bit-identical over the deeper closures.
func TestRepairDepth2MatchesDenseRebuild(t *testing.T) {
	const seed = 20260818
	const rounds = 40

	cfg := DefaultConfig(2)
	cfg.Shards = 4

	rep := newDiffSide(t, seed, cfg)
	ref := newRefSide(t, seed, cfg)
	var hits int
	for r := 0; r < rounds; r++ {
		rep.churnStep(2)
		ref.churnStep(2)
		rr := rep.step()
		rf := ref.step()
		hits += rr.RepairHits
		if stripTiming(rr) != stripTiming(rf) {
			t.Fatalf("round %d: h=2 repair diverged\nrepair: %+v\ndense:  %+v", r, rr, rf)
		}
		requireSameStates(t, r, rep.opt, ref.opt, rep.net.N())
		requireSameEdges(t, r, rep.net, ref.net)
	}
	requireAllFull(t, ref, rounds)
	if hits == 0 {
		t.Fatal("no repair hits at h=2; the differential is vacuous")
	}
}
