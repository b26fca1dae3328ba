package core

import (
	"reflect"

	"ace/internal/obs"
)

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

	// Phase-3 probes whose candidate was rejected (Figure 4(d) or a
	// refused/failed connect). The counters fed straight from a report
	// field are named by StepReport's obs tags (reportCounters).
	cRejected = obs.NewCounter("ace.core.phase3.reject")

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
)

// reportCounter pairs a StepReport field with the counter its obs tag
// names.
type reportCounter struct {
	field int
	c     *obs.Counter
}

// reportCounters holds one counter per obs-tagged StepReport field,
// registered once at package init.
var reportCounters = func() []reportCounter {
	var out []reportCounter
	t := reflect.TypeOf(StepReport{})
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, ok := f.Tag.Lookup("obs")
		if !ok {
			continue
		}
		if f.Type.Kind() != reflect.Int {
			panic("core: obs-tagged StepReport field " + f.Name + " is not an int")
		}
		out = append(out, reportCounter{field: i, c: obs.NewCounter(name)})
	}
	return out
}()

// flushRoundObs folds one completed round's report into the registry.
// Every probe either ended in an accepted rewire (4b replacement or 4c
// tentative keep) or was rejected, so the reject count derives from the
// report instead of instrumenting each Figure-4 branch.
func flushRoundObs(report *StepReport) {
	if !obs.Enabled() {
		return
	}
	v := reflect.ValueOf(report).Elem()
	for _, rc := range reportCounters {
		rc.c.Add(uint64(v.Field(rc.field).Int()))
	}
	if rej := report.Probes - report.Replacements - report.KeptNew; rej > 0 {
		cRejected.Add(uint64(rej))
	}
	if report.ShardImbalance > 0 {
		hShardImbalance.Observe(uint64(report.ShardImbalance * 100))
	}
}
