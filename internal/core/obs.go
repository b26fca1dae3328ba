package core

import "ace/internal/obs"

// Round-optimizer instrumentation (naming scheme: ace.core.<name>; see
// DESIGN.md §6). The spans are the single source of truth for the
// per-phase nanos StepReport carries — Round reads its RebuildNanos/
// Phase3Nanos/RepairNanos from them — and everything else is a gated
// counter or histogram that costs one branch while the registry is
// disabled.
var (
	// Per-phase wall-clock spans of one Round (nanoseconds).
	spanRebuild = obs.NewSpan("ace.core.round.rebuild")
	spanPhase3  = obs.NewSpan("ace.core.round.phase3")
	spanRepair  = obs.NewSpan("ace.core.round.repair")

	// How rebuilds resolved: full sweeps (first round, journal desync)
	// and incremental (dirty-region) rebuilds.
	cRebuildFull        = obs.NewCounter("ace.core.rebuild.full")
	cRebuildIncremental = obs.NewCounter("ace.core.rebuild.incremental")
	cPeersRebuilt       = obs.NewCounter("ace.core.rebuild.peers")

	// Dirty-region size per incremental rebuild (peers, log₂ buckets).
	hDirtyRegion = obs.NewHistogram("ace.core.rebuild.dirty_region")

	// Incremental tree-repair outcomes (see repair.go): dirty states
	// repaired from the previous round's tree vs. rebuilt with dense
	// Prim, and the member-splice / edge-swap op counts inside the
	// repairs. Folded once per rebuild pass from the worker tallies, not
	// per peer, so the hot path stays branch-free.
	cRepairHits      = obs.NewCounter("ace.core.rebuild.repair_hits")
	cRepairFallbacks = obs.NewCounter("ace.core.rebuild.repair_fallbacks")
	cAttachOps       = obs.NewCounter("ace.core.rebuild.attach_ops")
	cSwapOps         = obs.NewCounter("ace.core.rebuild.swap_ops")

	// Phase-3 outcome counters: probes issued, Figure-4(b) replacements
	// accepted, Figure-4(c) tentative keeps accepted, and probes whose
	// candidate was rejected (Figure 4(d) or a refused/failed connect).
	cProbes       = obs.NewCounter("ace.core.phase3.probes")
	cReplacements = obs.NewCounter("ace.core.phase3.accept_replace")
	cKeptNew      = obs.NewCounter("ace.core.phase3.accept_keep")
	cRejected     = obs.NewCounter("ace.core.phase3.reject")
	cDeferredCuts = obs.NewCounter("ace.core.phase3.deferred_cuts")
	cAbandoned    = obs.NewCounter("ace.core.phase3.abandoned")
	cRepairs      = obs.NewCounter("ace.core.repair.connects")

	// Sharded-engine instruments (ace.core.shard.*): per-shard peer and
	// rebuild counts per fan-out, the cross-shard merge span (run fold
	// plus serial apply), each shard's proposal keying/sorting CPU time
	// (inside the fan-out, so not wall-clock), and the rebuild imbalance
	// (max-shard excess over the even split, in percent) per round.
	hShardPeers     = obs.NewHistogram("ace.core.shard.peers")
	hShardRebuilt   = obs.NewHistogram("ace.core.shard.rebuilt")
	spanShardMerge  = obs.NewSpan("ace.core.shard.merge_nanos")
	spanMergeSort   = obs.NewSpan("ace.core.shard.merge_sort_nanos")
	hShardImbalance = obs.NewHistogram("ace.core.shard.imbalance")

	// Fault-reaction counters (ace.fault.*): how the protocol responded
	// to injected faults and crash debris. The injection-side tallies
	// (ace.fault.injected.*) are always-on counters owned by the
	// injector itself; these gated ones count the protocol's reactions.
	cFaultRetries       = obs.NewCounter("ace.fault.probe.retries")
	cFaultProbeTimeouts = obs.NewCounter("ace.fault.probe.timeouts")
	cFaultStaleMarked   = obs.NewCounter("ace.fault.stale.marked")
	cFaultStaleExpired  = obs.NewCounter("ace.fault.stale.expired")
	cFaultBlacklistHits = obs.NewCounter("ace.fault.blacklist.hits")
	cFaultFailedDials   = obs.NewCounter("ace.fault.connect.failures")
	cFaultPurged        = obs.NewCounter("ace.fault.crash.purged_edges")
)

// flushRoundObs folds one completed round's report into the registry.
// Every probe either ended in an accepted rewire (4b replacement or 4c
// tentative keep) or was rejected, so the reject count derives from the
// report instead of instrumenting each Figure-4 branch.
func flushRoundObs(report *StepReport) {
	if !obs.Enabled() {
		return
	}
	cProbes.Add(uint64(report.Probes))
	cReplacements.Add(uint64(report.Replacements))
	cKeptNew.Add(uint64(report.KeptNew))
	if rej := report.Probes - report.Replacements - report.KeptNew; rej > 0 {
		cRejected.Add(uint64(rej))
	}
	cDeferredCuts.Add(uint64(report.DeferredCuts))
	cAbandoned.Add(uint64(report.Abandoned))
	cRepairs.Add(uint64(report.Repairs))
	cFaultRetries.Add(uint64(report.ProbeRetries))
	cFaultProbeTimeouts.Add(uint64(report.ProbeTimeouts))
	cFaultStaleMarked.Add(uint64(report.StaleMarked))
	cFaultStaleExpired.Add(uint64(report.StaleExpired))
	cFaultBlacklistHits.Add(uint64(report.BlacklistHits))
	cFaultFailedDials.Add(uint64(report.FailedConnects))
	cFaultPurged.Add(uint64(report.PurgedEdges))
	if report.ShardImbalance > 0 {
		hShardImbalance.Observe(uint64(report.ShardImbalance * 100))
	}
}
