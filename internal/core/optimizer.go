package core

import (
	"fmt"
	"runtime"
	"slices"

	"ace/internal/obs/tracer"
	"ace/internal/overlay"
	"ace/internal/par"
	"ace/internal/sim"
)

// Optimizer runs ACE over an overlay network. It owns per-peer state and
// mutates the network's connections in Phase 3. It is not safe for
// concurrent use; simulators drive it from one goroutine.
//
// Phase 1–2 state is maintained INCREMENTALLY: the optimizer holds a
// cursor into the network's mutation journal, and each RebuildTrees
// rebuilds only the peers whose h-closure a journaled event could have
// touched (the dirty region), keeping every other PeerState cached from
// the previous round. A full rebuild runs on the first round and when
// the journal no longer reaches the cursor.
type Optimizer struct {
	net *overlay.Network
	cfg Config

	// state holds each peer's Phase-1/2 state, dense-indexed by id (nil
	// for dead or never-built peers) so the forwarding hot path reads it
	// with one array load instead of a map probe.
	state []*PeerState
	// pending records the deferred Figure-4(c) replacements: pending[a][b]
	// holds the candidate h that a connected to while keeping its
	// non-flooding neighbor b. a cuts a—b once it observes (via the
	// periodic exchange) that the b—h connection is gone, or abandons
	// the experiment — cutting the extra a—h link — when b—h survives
	// PendingTTL rounds, so tentative links cannot accumulate. The outer
	// level is dense-indexed by proposer id (nil for peers with no open
	// experiment), so executePendingCuts visits proposers in ascending
	// order without sorting them.
	pending []map[overlay.PeerID]pendingCut

	// contrib caches each built peer's exchange-cost contribution (its
	// per-cycle probe + table traffic), dense-indexed by id like o.state
	// (stale entries of dead peers are zeroed with their state). It
	// changes exactly when the peer's state is rebuilt — a changed
	// neighbor list makes the peer a journal endpoint, hence dirty — so
	// exchangeCost is a flat sum over the live population instead of an
	// O(edges) oracle sweep per round.
	contrib []float64

	// cursor is the journal position o.state reflects; synced holds off
	// the incremental path until the first full rebuild exists.
	cursor uint64
	synced bool
	stats  RebuildStats

	// lastRepair aggregates the repair-path outcomes of the most recent
	// rebuild pass, folded serially from the worker tallies (so the
	// totals are deterministic for every worker count and schedule).
	lastRepair repairTally

	// rev is the reverse closure index (see revindex.go): rev.forEach(m)
	// visits the peers whose last-built closure contains m, flagged
	// interior when m sits at depth ≤ h−1 (only interior members can
	// propagate an edge change into the closure; see dirtyRegion). It is
	// maintained from the same journal-driven commits that update
	// o.state, so both always describe the same rebuild generation.
	rev revIndex

	// Scratch buffers reused across rounds; valid only single-threaded.
	aliveBuf []overlay.PeerID
	dirtyBuf []overlay.PeerID
	dirtySet peerBitset
	flipSet  peerBitset
	flipBuf  []overlay.PeerID

	// Sharded-engine state (see shard.go): per-shard arenas, the two
	// ping-pong buffers the merge folds the shards' sorted runs through,
	// the per-peer probe-traffic slots whose serial fold keeps the float
	// accumulation independent of the shard count, and the last
	// rebuild's imbalance.
	shardPool     []*shardState
	mergeBufs     [2][]proposal
	peerTraffic   []float64
	spanBuf       [][2]int
	stateBuf      []*PeerState
	lastImbalance float64

	// Fault-hardening state (see fault.go); all of it stays nil/zero —
	// and costs nothing — until a fault.Injector is attached to the
	// network or a crash leaves dangling edges behind.
	roundNum   int              // protocol rounds seen, drives injector windows
	staleFor   []int32          // consecutive cycles a peer went unprobed
	excluded   []bool           // peers past staleTTL, dropped from closures
	exclFlips  []overlay.PeerID // exclusion changes this round, for dirtyRegion
	dangleBuf  []overlay.DanglingPair
	dialFails  []uint8 // consecutive dial failures per peer
	blackExp   []uint8 // blacklist-duration exponent per peer
	blackUntil []int32 // round until which a peer is blacklisted

	totalOverhead float64 // accumulated probe + exchange traffic cost

	// tr caches the causal tracer's state per round (see trace.go);
	// tr.on stays false — one atomic load per round — until the process
	// tracer is enabled.
	tr traceState
}

// RebuildStats counts how RebuildTrees executions resolved, for tests and
// benchmarks that assert the incremental path is actually taken.
type RebuildStats struct {
	Full         int // rebuilds that rebuilt every live peer
	Incremental  int // rebuilds that rebuilt only the dirty region
	PeersRebuilt int // total PeerStates constructed
}

// pendingCut is one outstanding Figure-4(c) experiment.
type pendingCut struct {
	h   overlay.PeerID
	ttl int
}

// PendingTTL is how many rounds a Figure-4(c) tentative link survives
// before the experiment is abandoned.
const PendingTTL = 3

// MaxPending caps a peer's outstanding Figure-4(c) experiments, bounding
// the tentative extra degree a peer carries.
const MaxPending = 2

// StepReport summarizes one ACE round for instrumentation and tests. It
// is the one declaration of every round metric: a field's json tag is its
// key in a -metrics round line, and an obs tag names the ace.* counter
// each round adds the field's value to (flushRoundObs). Fields tagged
// json:"-" stay out of the stream.
type StepReport struct {
	Probes       int     `json:"probes" obs:"ace.core.phase3.probes"`               // Phase-3 candidate probes issued
	Replacements int     `json:"replacements" obs:"ace.core.phase3.accept_replace"` // immediate Figure-4(b) replacements
	KeptNew      int     `json:"kept_new" obs:"ace.core.phase3.accept_keep"`        // Figure-4(c) tentative connections
	DeferredCuts int     `json:"deferred_cuts" obs:"ace.core.phase3.deferred_cuts"` // pending cuts executed this round
	Abandoned    int     `json:"abandoned" obs:"ace.core.phase3.abandoned"`         // Figure-4(c) experiments expired this round
	Repairs      int     `json:"repairs" obs:"ace.core.repair.connects"`            // bootstrap connections opened to hold minDegree
	ProbeTraffic float64 `json:"probe_traffic"`                                     // traffic cost of this round's probes
	ExchangeCost float64 `json:"exchange_cost"`                                     // traffic cost of this round's cost-table exchange

	// Fault-reaction counters; all zero when no fault plan is attached
	// and no crash debris exists.
	ProbeRetries   int `json:"probe_retries,omitempty" obs:"ace.fault.probe.retries"`      // Phase-1 probe retries after a timeout
	ProbeTimeouts  int `json:"probe_timeouts,omitempty" obs:"ace.fault.probe.timeouts"`    // probes (Phase 1 and 3) that got no answer
	StaleMarked    int `json:"stale_marked,omitempty" obs:"ace.fault.stale.marked"`        // peers whose cost entries newly went stale
	StaleExpired   int `json:"stale_expired,omitempty" obs:"ace.fault.stale.expired"`      // peers that crossed staleTTL and were excluded
	BlacklistHits  int `json:"blacklist_hits,omitempty" obs:"ace.fault.blacklist.hits"`    // candidate picks refused by the dial blacklist
	FailedConnects int `json:"failed_connects,omitempty" obs:"ace.fault.connect.failures"` // dials the fault plan failed
	PurgedEdges    int `json:"purged_edges,omitempty" obs:"ace.fault.crash.purged_edges"`  // dangling half-open edges detected and purged

	// Wall-clock phase breakdown of the round, for benchmarks that need
	// to attribute cost (differential tests zero these before comparing).
	// The values are measured by the ace.core.round.{rebuild,phase3,
	// repair} obs spans, whose histograms accumulate the same numbers
	// when the registry is enabled. Each span wraps its entire phase
	// end-to-end, OUTSIDE any shard fan-out: under the sharded engine a
	// phase's nanos bound the slowest shard (elapsed time), never the sum
	// of per-shard CPU time, so the three fields always add up to at most
	// the round's wall-clock duration. Pinned by
	// TestStepReportNanosAreWallClock.
	RebuildNanos int64 `json:"rebuild_ns"` // Phases 1–2: state sync + exchange pricing
	Phase3Nanos  int64 `json:"phase3_ns"`  // pending cuts + the per-peer replacement policy
	RepairNanos  int64 `json:"repair_ns"`  // minimum-degree repair

	// Sharded-engine diagnostics; all zero when the serial engine ran
	// the round (Config.Shards == 0). MergeNanos is the wall-clock of the
	// merge after the propose fan-out returns: folding the shards'
	// sorted runs into one stream and applying it. MergeSortNanos sums
	// the per-shard proposal sorts, which run concurrently inside the
	// fan-out, so it is CPU time, not wall-clock, and takes no part in
	// the phase-nanos ≤ elapsed contract.
	Shards           int     `json:"shards,omitempty"`            // shard cap the round executed with
	MergeNanos       int64   `json:"merge_ns,omitempty"`          // run fold + serial apply, within Phase3Nanos
	MergeSortNanos   int64   `json:"merge_sort_ns,omitempty"`     // per-shard proposal sorts, summed CPU time
	ShardImbalance   float64 `json:"shard_imbalance,omitempty"`   // max shard's states built over the mean, −1
	ProposeImbalance float64 `json:"propose_imbalance,omitempty"` // max shard's proposal count over the mean, −1

	// MergeSegments and MergeSerialFallbacks are always 0: the merge
	// applies its stream serially and cuts it into no conflict segments.
	// They remain only because the acebench report reads them, and go
	// with the next change to that benchmark.
	MergeSegments        int `json:"-"`
	MergeSerialFallbacks int `json:"-"`

	// Incremental tree-repair diagnostics (see repair.go); engine
	// bookkeeping like the sharded-engine fields above, zeroed by
	// differential tests before comparing trajectories. RepairHits counts
	// dirty states whose tree was repaired from the previous round
	// without a dense Prim; RepairFallbacks counts dirty states that ran
	// dense construction anyway (no prior state, delta past the
	// threshold, or repair disabled for the round); AttachOps and SwapOps
	// count the members spliced in and the tree edges displaced while
	// repairing. They carry no obs tag: noteRepair feeds their counters
	// from every rebuild pass, RebuildTrees' too, which no report covers.
	RepairHits      int `json:"repair_hits,omitempty"`
	RepairFallbacks int `json:"repair_fallbacks,omitempty"`
	AttachOps       int `json:"attach_ops,omitempty"`
	SwapOps         int `json:"swap_ops,omitempty"`
}

// NewOptimizer validates cfg and attaches an optimizer to net. No state
// is built until the first Round (peers have not exchanged tables yet).
func NewOptimizer(net *overlay.Network, cfg Config) (*Optimizer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Optimizer{
		net:     net,
		cfg:     cfg,
		state:   make([]*PeerState, net.N()),
		pending: make([]map[overlay.PeerID]pendingCut, net.N()),
		contrib: make([]float64, net.N()),
	}, nil
}

// Config returns the optimizer's configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// Network returns the overlay this optimizer mutates.
func (o *Optimizer) Network() *overlay.Network { return o.net }

// State returns the Phase-1/2 state of p from the last rebuild, or nil if
// p had none (dead, or joined after the last round).
func (o *Optimizer) State(p overlay.PeerID) *PeerState {
	if int(p) >= len(o.state) {
		return nil
	}
	return o.state[p]
}

// RebuildStats reports how rebuilds resolved since construction.
func (o *Optimizer) RebuildStats() RebuildStats { return o.stats }

// alivePeers refreshes and returns the reusable live-peer slice; it stays
// valid for the rest of the round because rounds never change liveness.
func (o *Optimizer) alivePeers() []overlay.PeerID {
	o.aliveBuf = o.net.AlivePeersAppend(o.aliveBuf[:0])
	return o.aliveBuf
}

// RebuildTrees runs Phases 1–2: probe costs, exchange tables, build the
// closure MSTs, and split neighbors into flooding and non-flooding sets —
// incrementally when the journal shows only local change, from scratch
// otherwise. It returns the traffic cost of this exchange cycle and
// accumulates it into TotalOverhead. (The exchange itself is priced in
// full either way: every peer re-probes and re-ships its table each
// cycle; only the simulator-side state reconstruction is incremental.)
func (o *Optimizer) RebuildTrees() float64 {
	sp := spanRebuild.Start()
	peers := o.alivePeers()
	o.traceSync()
	tts := o.traceNow()
	var report StepReport
	o.faultPhase(peers, &report)
	o.rebuild(peers)
	cost := o.exchangeCost(peers) + report.ProbeTraffic
	o.totalOverhead += cost
	sp.End()
	o.tracePhase(tracer.PhaseRebuild, tts)
	return cost
}

// rebuild brings o.state in sync with the network, choosing between the
// dirty-region and full paths.
func (o *Optimizer) rebuild(peers []overlay.PeerID) {
	o.lastRepair = repairTally{}
	events, next, ok := o.net.EventsSince(o.cursor)
	if o.synced && ok {
		if len(events) == 0 && len(o.exclFlips) == 0 {
			o.cursor = next
			return
		}
		o.rebuildDirty(events, o.dirtyRegion(events), peers)
		o.cursor = next
		o.net.CompactJournal(o.cursor)
		return
	}
	clear(o.state)
	clear(o.contrib)
	o.rev.reset()
	o.buildStates(peers, nil)
	o.stats.Full++
	cRebuildFull.Inc()
	o.cursor = next
	o.synced = true
	o.net.CompactJournal(o.cursor)
}

// revIdle reports whether the reverse closure index has no possible
// reader under this configuration, so its maintenance can be skipped
// entirely. At h = 1 the only interior member of a closure is the peer
// itself: event-endpoint resolution never consults postings, and
// staleness flips resolve exactly through the live 1-hop adjacency (see
// dirtyRegion). Deeper closures and the sparse ablation (which dirties
// on non-interior holders too) genuinely read the index.
func (o *Optimizer) revIdle() bool {
	return o.cfg.Depth == 1 && !o.cfg.SparseKnowledge
}

// repairCtxFor returns the repair context for a dirty-region rebuild, or
// nil when the repair path is off for this round: meaningless under the
// sparse ablation (trees depend on overlay edges, not just membership),
// or — per the fallback policy — whenever staleness exclusions flipped,
// which perturbs closures in bulk; those rounds take the existing dense
// construction for every dirty peer.
func (o *Optimizer) repairCtxFor() *repairCtx {
	if o.cfg.SparseKnowledge || len(o.exclFlips) > 0 {
		return nil
	}
	return &repairCtx{states: o.state, recycle: o.revIdle()}
}

// dirtyRegion resolves the journaled endpoints against the reverse
// closure index: a cached PeerState can change only if an event endpoint
// sat in its closure strictly inside the horizon (depth ≤ Depth−1) —
// only then can an added edge extend, or a removed edge shrink, what the
// peer sees. (Every prefix of a shortest path through the first changed
// edge lies in the old graph, so the peer held that endpoint at depth
// ≤ Depth−1 at the last rebuild; removed edges existed at the last
// rebuild by definition, so the index covers them too.) Under the
// sparse-knowledge ablation the tree also depends on closure-internal
// overlay edges, so there every posting counts, not just interior ones.
// This is exact — no h-hop overapproximation over current adjacency —
// which is what lets the incremental path keep firing once Phase-3
// rewiring spreads endpoints across the overlay.
//
// Staleness exclusions (o.exclFlips) dirty closures the journal knows
// nothing about: an excluded peer vanishes from — or a readmitted one
// reappears in — every closure that held it at ANY depth, so flips mark
// all live postings, not just interior ones.
//
// The returned set is the reusable o.dirtySet bitset, valid until the
// next dirtyRegion call. Under the sharded engine the posting scan fans
// out across shards (shard.go); the union of per-shard bitsets is
// order-free, so the resolved set is identical for every shard count and
// goroutine schedule.
func (o *Optimizer) dirtyRegion(events []overlay.Event) *peerBitset {
	sparse := o.cfg.SparseKnowledge
	dirty := &o.dirtySet
	dirty.reset(o.net.N())
	endpoints := o.dirtyBuf[:0]
	for _, ev := range events {
		if dirty.set(ev.P) {
			endpoints = append(endpoints, ev.P)
		}
		if ev.Q >= 0 && dirty.set(ev.Q) {
			endpoints = append(endpoints, ev.Q)
		}
	}
	o.dirtyBuf = endpoints[:0]
	if o.revIdle() {
		// h = 1 dense: the posting scan below can add nothing (the only
		// interior member of a 1-closure is the peer itself, already set
		// as an event endpoint), and a staleness flip's holders resolve
		// exactly through the CURRENT adjacency — a holder the adjacency
		// misses lost its edge to f this round and is already dirty as
		// that event's endpoint.
		for _, f := range o.exclFlips {
			dirty.set(f)
			for _, q := range o.net.NeighborsView(f) {
				dirty.set(q)
			}
		}
	} else {
		if s := o.fanWidth(o.shardCount(), len(endpoints)); s > 1 && len(endpoints) >= 2*s {
			o.scanPostingsSharded(dirty, endpoints, sparse, s)
		} else {
			for _, e := range endpoints {
				o.rev.forEach(e, func(p overlay.PeerID, interior bool) {
					if interior || sparse {
						dirty.set(p)
					}
				})
			}
		}
		for _, f := range o.exclFlips {
			dirty.set(f)
			o.rev.forEach(f, func(p overlay.PeerID, _ bool) { dirty.set(p) })
			if !o.excluded[f] {
				// Readmitted: while f was excluded every holder rebuilt
				// WITHOUT it, so the postings above name nobody — but every
				// peer within h hops must now re-include f. Resolve those
				// through the graph instead; the unfiltered BFS is a safe
				// overapproximation of exclusion-filtered reachability
				// (rebuilding an unaffected peer reproduces its state).
				o.markNeighborhood(dirty, f)
			}
		}
	}
	return dirty
}

// markNeighborhood dirties every peer within cfg.Depth hops of f over the
// current adjacency. Any peer whose closure must re-include a readmitted f
// reaches it within h hops through non-excluded interior nodes, and that
// path reversed makes the peer reachable from f — so the unfiltered BFS
// is a superset of the affected set, never missing one.
func (o *Optimizer) markNeighborhood(dirty *peerBitset, f overlay.PeerID) {
	seen := &o.flipSet
	seen.reset(o.net.N())
	seen.set(f)
	queue := append(o.flipBuf[:0], f)
	head, depth, levelEnd := 0, 0, 1
	for head < len(queue) && depth < o.cfg.Depth {
		u := queue[head]
		head++
		for _, v := range o.net.NeighborsView(u) {
			if seen.set(v) {
				dirty.set(v)
				queue = append(queue, v)
			}
		}
		if head == levelEnd {
			depth++
			levelEnd = len(queue)
		}
	}
	o.flipBuf = queue[:0]
}

// rebuildDirty drops state of departed peers and rebuilds the live dirty
// region, leaving every other cached PeerState untouched.
func (o *Optimizer) rebuildDirty(events []overlay.Event, dirty *peerBitset, peers []overlay.PeerID) {
	revIdle := o.revIdle()
	for _, ev := range events {
		if ev.Kind == overlay.EventLeave || ev.Kind == overlay.EventCrash {
			if !revIdle {
				if old := o.state[ev.P]; old != nil {
					o.rev.drop(ev.P, old)
				}
			}
			o.state[ev.P] = nil
			o.contrib[ev.P] = 0
		}
	}
	list := o.dirtyBuf[:0]
	for _, p := range peers {
		if dirty.has(p) {
			list = append(list, p)
		}
	}
	o.buildStates(list, o.repairCtxFor())
	o.dirtyBuf = list[:0]
	o.stats.Incremental++
	cRebuildIncremental.Inc()
	hDirtyRegion.Observe(uint64(dirty.count()))
}

// buildStates runs Phases 1–2 for the listed peers in parallel (the
// network is not mutated during a rebuild, and the distance oracle is
// safe for concurrent reads), committing results and exchange
// contributions in deterministic order. The sharded engine assigns each
// peer to the shard owning its id range (shard.go); otherwise
// min(GOMAXPROCS, len(list)) workers claim peers one at a time off
// par.Run's cursor, each building into its own arena. That width
// ignores fanWidth's per-shard floor on purpose: the floor prices a
// shard handoff against ~512 cheap sweep targets, but one state is a
// closure BFS plus a dense Prim, so a few hundred dirty peers already
// keep a second core busy and the floor would leave them on one.
func (o *Optimizer) buildStates(list []overlay.PeerID, rc *repairCtx) {
	if len(list) == 0 {
		return
	}
	if s := o.fanWidth(o.shardCount(), len(list)); s > 1 {
		o.buildStatesSharded(list, s, rc)
		return
	}
	states := o.stateSlots(len(list))
	arenas := o.buildArenas(min(runtime.GOMAXPROCS(0), len(list)))
	ts := o.traceNow()
	par.Run(len(arenas), len(list), func(w, i int) {
		sh := arenas[w]
		states[i] = buildState(&sh.scratch, o.net, list[i], &o.cfg, o.excluded, rc)
		sh.built++
		sh.buildEnd = ringNow(sh.scratch.trace)
	})
	rr := o.roundRing()
	for _, sh := range arenas {
		if sh.built > 0 {
			traceShardSpan(rr, sh.scratch.trace, sh.scratch.traceRound, tracer.KindShardBuild, ts, sh.buildEnd, int32(sh.built), 0)
		}
		o.noteRepair(sh.scratch.tally)
	}
	o.commitStates(list, states)
}

// buildArenas readies k shard arenas for a build fan-out: build counts
// and repair tallies cleared, trace rings refreshed for this round.
func (o *Optimizer) buildArenas(k int) []*shardState {
	arenas := o.ensureShards(k)
	for w, sh := range arenas {
		sh.built = 0
		sh.scratch.tally = repairTally{}
		sh.scratch.trace, sh.scratch.traceRound = o.ringFor(w), o.tr.round
	}
	return arenas
}

// noteRepair folds one worker's repair tally into the round aggregate
// and the obs counters. Callers invoke it serially after their fan-out
// completes, in worker order — the sums are order-free, but the habit
// keeps every engine path deterministic by construction.
func (o *Optimizer) noteRepair(t repairTally) {
	o.lastRepair.add(t)
	if t.hits != 0 {
		cRepairHits.Add(uint64(t.hits))
	}
	if t.fallbacks != 0 {
		cRepairFallbacks.Add(uint64(t.fallbacks))
	}
	if t.attachOps != 0 {
		cAttachOps.Add(uint64(t.attachOps))
	}
	if t.swapOps != 0 {
		cSwapOps.Add(uint64(t.swapOps))
	}
}

// stateSlots returns a zeroed pooled slice for freshly built states.
// Rebuilds run every round; commitStates consumes the slice before the
// next call, so one buffer serves every rebuild — the result slice was
// the last per-round allocation left on the rebuild path.
func (o *Optimizer) stateSlots(n int) []*PeerState {
	if cap(o.stateBuf) < n {
		o.stateBuf = make([]*PeerState, n)
	}
	s := o.stateBuf[:n]
	clear(s)
	return s
}

// commitStates installs freshly built states in list order, maintaining
// the reverse index and the cached exchange contributions. It is the
// single commit path shared by the serial and sharded build fan-outs,
// which is what makes their results indistinguishable: the parallel part
// writes only disjoint slots of states, and everything order-sensitive
// happens here, serially.
func (o *Optimizer) commitStates(list []overlay.PeerID, states []*PeerState) {
	if n := o.net.N(); len(o.state) < n {
		o.state = append(o.state, make([]*PeerState, n-len(o.state))...)
		o.contrib = append(o.contrib, make([]float64, n-len(o.contrib))...)
		o.pending = append(o.pending, make([]map[overlay.PeerID]pendingCut, n-len(o.pending))...)
	}
	revIdle := o.revIdle()
	if !revIdle {
		o.rev.ensure(o.net.N())
	}
	interiorMax := int32(o.cfg.Depth - 1)
	for i, p := range list {
		if states[i] == o.state[p] {
			// Identity-reused state (see buildState's fast path): its
			// postings, contribution and slot are all already current —
			// a drop/add cycle would only churn the index toward its
			// compaction threshold.
			continue
		}
		if !revIdle {
			if old := o.state[p]; old != nil {
				o.rev.drop(p, old)
			}
			o.rev.add(p, states[i], interiorMax)
		}
		o.state[p] = states[i]
		o.contrib[p] = states[i].contrib
	}
	if !revIdle {
		o.rev.compactIfNeeded()
	}
	o.stats.PeersRebuilt += len(list)
	cPeersRebuilt.Add(uint64(len(list)))
}

// exchangeCost sums the cached per-peer contributions in ascending peer
// order (deterministic float accumulation).
func (o *Optimizer) exchangeCost(peers []overlay.PeerID) float64 {
	total := 0.0
	for _, p := range peers {
		total += o.contrib[p]
	}
	return total
}

// Round executes one full ACE step: Phases 1–2 (rebuild) followed by
// Phase 3 (one replacement attempt per peer, per the configured policy)
// and the minimum-degree repair. The live-peer slice is computed once
// and threaded through the whole round — rounds rewire edges but never
// change liveness.
//
// Both engines run one Phase-3 policy implementation: every peer
// proposes through proposePeer and every proposal applies through
// applyOne. Config.Shards chooses the apply order. The serial engine
// (Shards == 0) applies each peer's proposals at once, so peer i+1 acts
// on peer i's rewires. The sharded engine (shard.go) proposes in a
// parallel pass against the frozen network and merges in the order of
// seed-derived keys; its outcome is a pure function of (state, seed),
// identical for every shard count. The phase spans wrap each phase
// end-to-end, outside any fan-out, so StepReport's nanos stay
// wall-clock.
func (o *Optimizer) Round(rng *sim.RNG) StepReport {
	// The obs spans are the single source of truth for phase timing:
	// StepReport's nanos are each span's measured duration, and the same
	// measurement lands in the registry histograms when observability is
	// enabled.
	s := o.shardCount()
	sp := spanRebuild.Start()
	peers := o.alivePeers()
	o.traceRoundBegin(len(peers))
	tts := o.traceNow()
	report := StepReport{Shards: s}
	o.lastImbalance = 0
	o.faultPhase(peers, &report)
	o.rebuild(peers)
	o.lastRepair.fill(&report)
	cost := o.exchangeCost(peers)
	o.totalOverhead += cost
	report.ExchangeCost = cost
	report.ShardImbalance = o.lastImbalance
	report.RebuildNanos = sp.End()
	o.tracePhase(tracer.PhaseRebuild, tts)

	tts = o.traceNow()
	sp = spanPhase3.Start()
	o.executePendingCuts(&report)
	// One draw seeds Phase 3 on either engine; each peer's stream and
	// each merge key derive from it by hashing.
	base := rng.Uint64()
	if s > 0 {
		o.phase3Sharded(base, peers, s, &report)
	} else {
		o.phase3Serial(base, peers, &report)
	}
	report.Phase3Nanos = sp.End()
	o.tracePhase(tracer.PhasePhase3, tts)

	tts = o.traceNow()
	sp = spanRepair.Start()
	o.maintainMinDegree(rng, peers, &report)
	report.RepairNanos = sp.End()
	o.tracePhase(tracer.PhaseRepair, tts)
	o.totalOverhead += report.ProbeTraffic
	flushRoundObs(&report)
	return report
}

// phase3Serial is the serial engine's Phase 3: each live peer in turn
// proposes against the network as the peers before it left it, and its
// proposals apply at once through applyOne, which revalidates each. A
// peer's own later proposal can therefore be voided by its earlier one
// (same candidate, or the a—b link already cut); applyOne rejects it.
// Probe traffic is summed per peer and folded in ascending peer order,
// as the sharded engine folds it.
func (o *Optimizer) phase3Serial(base uint64, peers []overlay.PeerID, report *StepReport) {
	sh := o.ensureShards(1)[0]
	sh.trace, sh.traceRound = o.ring0(), o.tr.round
	for _, a := range peers {
		sh.props = sh.props[:0]
		t := o.proposePeer(a, base, sh)
		report.ProbeTraffic += t.traffic
		report.Probes += t.probes
		report.ProbeTimeouts += t.timeouts
		report.BlacklistHits += t.hits
		for i := range sh.props {
			o.applyOne(&sh.props[i], report)
		}
	}
}

// minDegree is the connection floor every client maintains (real
// Gnutella clients keep a minimum number of connections open); a peer
// below it opens fresh bootstrap connections each round, which is what
// re-knits pairs severed by Phase-3 rewiring.
const minDegree = 2

// maintainMinDegree opens fresh bootstrap connections for peers that
// fell below the client connection floor, re-knitting any fragments
// Phase-3 rewiring severed. alive is the round's live-peer slice.
func (o *Optimizer) maintainMinDegree(rng *sim.RNG, alive []overlay.PeerID, report *StepReport) {
	for _, p := range alive {
		if o.net.Degree(p) < minDegree {
			for attempts := 0; o.net.Degree(p) < minDegree && attempts < 20; attempts++ {
				q := alive[rng.Intn(len(alive))]
				if o.atCap(q) {
					continue // a saturated partner refuses the bootstrap dial
				}
				if o.blacklisted(q) {
					report.BlacklistHits++
					continue
				}
				if o.tryConnect(p, q, report) {
					report.Repairs++
				}
			}
		}
	}
}

// safeCut disconnects a—b unless that would strand b (or a) with no
// neighbors at all: a client that loses its last connection re-joins
// through its host cache, and peers avoid forcing that. It reports
// whether the cut happened.
func (o *Optimizer) safeCut(a, b overlay.PeerID) bool {
	if !o.net.HasEdge(a, b) {
		return false
	}
	if o.net.Degree(a) <= 1 || o.net.Degree(b) <= 1 {
		return false
	}
	return o.net.Disconnect(a, b)
}

// abandonTentative removes the tentative a—h link of an expired or
// voided Figure-4(c) experiment.
func (o *Optimizer) abandonTentative(a, h overlay.PeerID, report *StepReport) {
	if o.net.Alive(a) && o.net.Alive(h) && o.safeCut(a, h) {
		report.Abandoned++
	}
}

// executePendingCuts applies the deferred Figure-4(c) rule: once a peer
// observes from the periodic exchange that its kept candidate's sponsor
// link b—h is gone, it cuts its own link to b. Experiments voided by
// churn or other rewiring, or expired past PendingTTL, drop their
// tentative a—h link instead, so tentative degree never accumulates.
// The dense pending slice scans in ascending proposer order, the same
// order the old sorted-owner iteration produced.
func (o *Optimizer) executePendingCuts(report *StepReport) {
	for a := range o.pending {
		m := o.pending[a]
		if len(m) == 0 {
			continue
		}
		a := overlay.PeerID(a)
		bs := make([]overlay.PeerID, 0, len(m))
		for b := range m {
			bs = append(bs, b)
		}
		slices.Sort(bs)
		for _, b := range bs {
			pc := m[b]
			h := pc.h
			switch {
			case !o.net.Alive(a):
				delete(m, b)
			case !o.net.Alive(b), !o.net.HasEdge(a, b):
				// Churn or another rule resolved the triangle some other
				// way; the tentative link goes too.
				o.abandonTentative(a, h, report)
				delete(m, b)
			case !o.net.Alive(h), !o.net.HasEdge(a, h):
				delete(m, b) // candidate vanished; nothing tentative left
			case !o.net.HasEdge(b, h):
				// The designed resolution: b dropped its link to h, so a
				// replaces b by h.
				if o.safeCut(a, b) {
					report.DeferredCuts++
				}
				delete(m, b)
			case pc.ttl <= 1:
				// b kept its link to h: undo the tentative connection
				// so extra degree does not accumulate.
				o.abandonTentative(a, h, report)
				delete(m, b)
			default:
				pc.ttl--
				m[b] = pc
			}
		}
		if len(m) == 0 {
			o.pending[a] = nil
		}
	}
}

// atCap reports whether p sits at the configured connection ceiling and
// therefore refuses further connections (Phase 3 asks before connecting,
// the way a saturated Gnutella client rejects the handshake).
func (o *Optimizer) atCap(p overlay.PeerID) bool {
	return o.cfg.MaxDegree > 0 && o.net.Degree(p) >= o.cfg.MaxDegree
}

// applyFigure4 applies the paper's Figure-4 rules to candidate h drawn
// from non-flooding neighbor b of peer a, given the triangle's costs: ah
// is the probed a—h delay, ab and bh are static physical delays that the
// proposal carries (measured at propose time, identical values), so
// applying it touches no cost view at all. bh is compared only when
// ah ≥ ab.
func (o *Optimizer) applyFigure4(a, b, h overlay.PeerID, ah, ab, bh float64, report *StepReport) {
	switch {
	case ah < ab:
		// Figure 4(b): closer candidate found — replace b by h. No
		// ceiling check here: candidates were picked below the ceiling,
		// and a's own degree does not grow (the replacement moves one
		// connection slot from b to h).
		o.replace(a, b, h, report)
	case ah < bh:
		// Figure 4(c): keep h as a new neighbor; b is expected to demote
		// and then drop its link to h, after which a cuts a—b. Bounded
		// per peer so tentative links cannot pile up, and refused when
		// either end is at its connection ceiling: the tentative extra
		// degree is exactly what drifts the mean degree upward when its
		// compensating cut is consumed by other peers' rewiring.
		if o.atCap(a) || o.atCap(h) {
			return
		}
		if _, renewing := o.pending[a][b]; !renewing && len(o.pending[a]) >= MaxPending {
			return
		}
		if o.tryConnect(a, h, report) {
			o.resolvePending(a, b, report)
			if o.pending[a] == nil {
				o.pending[a] = make(map[overlay.PeerID]pendingCut)
			}
			o.pending[a][b] = pendingCut{h: h, ttl: PendingTTL}
			report.KeptNew++
		}
	default:
		// Figure 4(d): candidate is worst of the triangle — keep probing.
	}
}

// replace moves a's connection from b to h — the Figure-4(b) rewire and
// the naive policy's replacement — unless cutting a—b would strand b, in
// which case nothing changes.
func (o *Optimizer) replace(a, b, h overlay.PeerID, report *StepReport) {
	if o.net.Degree(b) <= 1 || !o.tryConnect(a, h, report) {
		return
	}
	if !o.safeCut(a, b) {
		o.net.Disconnect(a, h) // undo: replacement impossible
		return
	}
	o.resolvePending(a, b, report)
	report.Replacements++
}

// resolvePending clears any outstanding experiment a had for b, dropping
// its tentative link: a new decision about b supersedes it.
func (o *Optimizer) resolvePending(a, b overlay.PeerID, report *StepReport) {
	if old, ok := o.pending[a][b]; ok {
		o.abandonTentative(a, old.h, report)
		delete(o.pending[a], b)
	}
}

// candidatesInto appends to out the neighbors of b eligible to replace b
// for peer a: alive, not a itself, not already connected to a, below the
// connection ceiling (a saturated peer would refuse the dial, so probing
// it would waste the attempt), and not dial-blacklisted (a peer that
// keeps refusing connections is not worth another probe — each skip
// counts into hits). The naive and closest policies score several
// candidates per pair from it; the random policy rejection-samples a
// single pick instead. Both adjacency lists are sorted, so the
// already-connected filter is a linear merge against a's list rather than
// a membership probe per candidate, and b is disproportionately often a
// hub.
func (o *Optimizer) candidatesInto(out []overlay.PeerID, a, b overlay.PeerID, hits *int) []overlay.PeerID {
	an := o.net.NeighborsView(a)
	for _, h := range o.net.NeighborsView(b) {
		for len(an) > 0 && an[0] < h {
			an = an[1:]
		}
		if len(an) > 0 && an[0] == h {
			continue // already a neighbor of a
		}
		if h != a && o.net.Alive(h) && !o.atCap(h) {
			if o.blacklisted(h) {
				*hits++
				continue
			}
			out = append(out, h)
		}
	}
	return out
}

// TotalOverhead reports the accumulated probe + exchange traffic cost
// since construction, in the same units as query traffic cost.
func (o *Optimizer) TotalOverhead() float64 { return o.totalOverhead }

// PendingCuts reports how many deferred Figure-4(c) cuts are
// outstanding.
func (o *Optimizer) PendingCuts() int {
	n := 0
	for _, m := range o.pending {
		n += len(m)
	}
	return n
}

// FloodingNeighbors returns p's current flooding set, sorted, or nil if p
// has no built state.
func (o *Optimizer) FloodingNeighbors(p overlay.PeerID) []overlay.PeerID {
	st := o.state[p]
	if st == nil {
		return nil
	}
	return append(make([]overlay.PeerID, 0, len(st.flooding)), st.flooding...)
}

// String implements fmt.Stringer for debugging.
func (o *Optimizer) String() string {
	built := 0
	for _, st := range o.state {
		if st != nil {
			built++
		}
	}
	return fmt.Sprintf("ACE(h=%d, policy=%s, peers=%d)", o.cfg.Depth, o.cfg.Policy, built)
}
