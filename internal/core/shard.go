package core

import (
	"math/bits"
	"runtime"
	"slices"

	"ace/internal/fault"
	"ace/internal/obs"
	"ace/internal/obs/tracer"
	"ace/internal/overlay"
	"ace/internal/par"
	"ace/internal/sim"
)

// This file is the sharded round engine. Peers are partitioned into
// contiguous PeerID ranges, one per shard, and each phase's per-peer
// work runs shard-local against a frozen view of the network:
//
//   - Phase 1 (probe/staleness sweep, fault.go) and the dirty-region
//     posting scan fan out across shards and re-serialize into the exact
//     accumulation order of the serial engine — bit-identical results.
//   - Phase 2 (closure + MST builds) partitions the rebuild list by
//     shard ownership; states are pure functions of the frozen network,
//     and the serial commit path orders every side effect.
//   - Phase 3 splits into a parallel PROPOSE pass — each peer selects
//     and probes its replacement candidate against the frozen network,
//     drawing randomness from a per-peer splitmix64 stream — and a
//     serial MERGE that revalidates and applies the proposals in an
//     order keyed by splitmix64(seed, proposer, target). Every decision
//     is a pure function of (frozen state, round seed, peer id), so the
//     outcome is identical for every shard count and every goroutine
//     schedule; determinism tests compare shard counts 2, 5 and 8
//     against the single-shard run under -race.
//
// The propose/merge split is also the faithful reading of the paper's
// protocol: real ACE peers run Phase 3 concurrently against the state
// they observed at the last exchange, and conflicting rewires are
// resolved by whoever commits first — here, deterministically, by merge
// key. The serial engine (Config.Shards == 0) instead applies each
// peer's step immediately, so the two engines produce different (both
// valid) trajectories; DESIGN.md §5e discusses the divergence.

// splitRNG is a zero-allocation splitmix64 stream (sim.SplitMix64, the
// hash discipline internal/fault shares). Each proposing peer gets its
// own stream seeded from (round seed, peer id), so its draws are
// independent of every other peer's and of the shard layout.
type splitRNG struct{ s uint64 }

// next returns the next 64 uniform bits.
func (r *splitRNG) next() uint64 {
	r.s += sim.Golden
	return sim.SplitMix64(r.s)
}

// intn returns a draw from [0, n). The modulo bias is below 2⁻⁵⁰ for the
// neighbor-list sizes drawn here, far under the simulation's noise
// floor.
func (r *splitRNG) intn(n int) int {
	return int(r.next() % uint64(n))
}

// peerBitset is a reusable dense bitset over peer ids.
type peerBitset struct {
	words []uint64
}

// reset clears the set and sizes it for n peers.
func (bs *peerBitset) reset(n int) {
	w := (n + 63) / 64
	if cap(bs.words) < w {
		bs.words = make([]uint64, w)
		return
	}
	bs.words = bs.words[:w]
	clear(bs.words)
}

// set marks p, reporting whether it was newly set.
func (bs *peerBitset) set(p overlay.PeerID) bool {
	w, b := int(p)>>6, uint64(1)<<(uint(p)&63)
	if bs.words[w]&b != 0 {
		return false
	}
	bs.words[w] |= b
	return true
}

// has reports whether p is marked.
func (bs *peerBitset) has(p overlay.PeerID) bool {
	return bs.words[int(p)>>6]&(1<<(uint(p)&63)) != 0
}

// or merges other into the receiver; other must be same-sized.
func (bs *peerBitset) or(other *peerBitset) {
	for i, w := range other.words {
		bs.words[i] |= w
	}
}

// count returns the number of marked peers.
func (bs *peerBitset) count() int {
	n := 0
	for _, w := range bs.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// shardState is one shard's private arena: scratch for closure builds,
// a bitset for the posting scan, buffers for the probe sweep and the
// Phase-3 propose pass. Nothing in it is read by another shard while a
// fan-out is in flight. Unsharded state builds use the same arenas, one
// per build worker (buildStates).
type shardState struct {
	scratch buildScratch
	dirty   peerBitset
	candBuf []overlay.PeerID
	props   []proposal

	// Probe-sweep accumulators (fault.go). Retry costs are kept one per
	// retry so the serial fold reproduces the serial engine's float
	// additions exactly.
	flips      []overlay.PeerID
	retryCosts []float64
	retries    int
	timeouts   int
	staleMarked,
	staleExpired int

	// Propose-pass accumulators (order-free integer sums), plus the CPU
	// nanos the shard spent keying and sorting its own run.
	probes, probeTimeouts, blacklistHits int
	sortNanos                            int64

	// States built in the last rebuild fan-out, and (while tracing) when
	// the arena finished its last one: a pooled worker's span ends there.
	built    int
	buildEnd int64

	// Causal-trace sink for this shard's fan-out work, refreshed per
	// round by the engine (nil while tracing is off). Each shard owns
	// its ring, so fan-out workers never contend on a track.
	trace      *tracer.Ring
	traceRound int32
}

// resetSweep clears the probe-sweep accumulators.
func (sh *shardState) resetSweep() {
	sh.flips = sh.flips[:0]
	sh.retryCosts = sh.retryCosts[:0]
	sh.retries, sh.timeouts, sh.staleMarked, sh.staleExpired = 0, 0, 0, 0
}

// peerTally accumulates one proposing peer's probe activity. The float
// traffic sum stays per-peer — its addition order is then a function of
// the peer's own probe sequence only — and is folded into the report in
// ascending peer order, so the round's total is bit-identical for every
// shard count.
type peerTally struct {
	probes, timeouts, hits int
	traffic                float64
}

// proposal is one peer's Phase-3 intent, produced against the frozen
// network and applied (or rejected) by the merge. Endpoints are
// index-packed (peer ids fit 32 bits at any simulated scale) and the
// triangle's three costs travel with the proposal: the oracle serves
// float32 vectors, so the narrowed values widen back bit-exactly, and
// the apply path never touches a cost view. 40 bytes instead of the 48
// the id-sized struct took — and two fewer vector fetches per applied
// proposal.
type proposal struct {
	key        uint64  // merge order, sm(seed, a, b)
	ah, ab, bh float32 // probed a—h cost; static a—b, b—h delays
	a, b, h    uint32  // proposer, targeted neighbor, candidate
	kind       uint8
}

const (
	// propFigure4 defers the Figure-4 triangle decision to the merge
	// (random and closest policies).
	propFigure4 uint8 = iota
	// propNaive is the naive policy's pre-decided replacement: the
	// candidate already beat the worst neighbor's cost at propose time.
	propNaive
)

// shardCount resolves Config.Shards: 0 selects the serial engine, −1
// caps the shard count at GOMAXPROCS. Individual fan-outs may run
// narrower than the cap via fanWidth.
func (o *Optimizer) shardCount() int {
	s := o.cfg.Shards
	if s < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s
}

// minPerShard is the per-shard work floor of the auto heuristic: below
// ~512 peers per shard the arena resets and goroutine handoffs cost more
// than the parallelism returns (the n10000 rows of BENCH_shards.json
// price exactly that overhead), so auto-sized fan-outs narrow until each
// shard clears the floor.
const minPerShard = 512

// fanWidth narrows an auto-sized (Shards == -1) fan-out to the work it
// actually has: no more shards than work/minPerShard, never fewer than
// one. Explicitly configured shard counts pass through untouched — tests
// pin exact widths — and the trajectory is shard-count-independent by
// the engine's determinism contract, so narrowing is free to vary per
// phase and per round.
func (o *Optimizer) fanWidth(s, work int) int {
	if o.cfg.Shards != -1 || s <= 1 {
		return s
	}
	w := work / minPerShard
	if w < 1 {
		w = 1
	}
	if w < s {
		return w
	}
	return s
}

// ensureShards returns s ready-to-use shard arenas.
func (o *Optimizer) ensureShards(s int) []*shardState {
	for len(o.shardPool) < s {
		o.shardPool = append(o.shardPool, &shardState{})
	}
	return o.shardPool[:s]
}

// ownerSpans partitions an ascending peer list into s contiguous
// subslices by shard ownership: shard k owns ids [k·c, (k+1)·c) with
// c = ceil(N/s), a pure function of the population size — never of
// liveness or list content — so a peer's owner is stable across rounds.
// Concatenating the spans in shard order reproduces the input exactly,
// which is what lets sharded sweeps re-serialize into the serial
// engine's iteration order.
func (o *Optimizer) ownerSpans(list []overlay.PeerID, s int) [][2]int {
	if cap(o.spanBuf) < s {
		o.spanBuf = make([][2]int, s)
	}
	spans := o.spanBuf[:s]
	c := (o.net.N() + s - 1) / s
	start := 0
	for k := 0; k < s; k++ {
		end := start
		hi := (k + 1) * c
		for end < len(list) && int(list[end]) < hi {
			end++
		}
		spans[k] = [2]int{start, end}
		start = end
	}
	return spans
}

// buildStatesSharded is the sharded Phase-1/2 build fan-out: each shard
// constructs the states of the dirty peers it owns with its private
// scratch arena, and the shared serial commit path installs them in
// list order. States are pure functions of the frozen network, so the
// result is bit-identical to the serial engine's.
func (o *Optimizer) buildStatesSharded(list []overlay.PeerID, s int, rc *repairCtx) {
	states := o.stateSlots(len(list))
	shards := o.buildArenas(s)
	spans := o.ownerSpans(list, s)
	rr := o.roundRing()
	par.Run(s, s, func(_, k int) {
		sh := shards[k]
		lo, hi := spans[k][0], spans[k][1]
		if lo == hi {
			return
		}
		ts := ringNow(sh.scratch.trace)
		for i := lo; i < hi; i++ {
			p := list[i]
			st := buildState(&sh.scratch, o.net, p, &o.cfg, o.excluded, rc)
			if rc != nil && rc.recycle {
				// The state this one replaces is dead the moment the
				// build finishes (nothing re-reads it before commit on
				// recycle-eligible rounds) — reclaim its slabs for the
				// next build on this shard. The identity fast path
				// returns the old state itself; never reclaim a state
				// that is still the live result.
				if old := rc.states[p]; old != nil && old != st {
					sh.scratch.recycleSlabs(old)
				}
			}
			states[i] = st
		}
		sh.built = hi - lo
		traceShardSpan(rr, sh.scratch.trace, sh.scratch.traceRound, tracer.KindShardBuild, ts, ringNow(sh.scratch.trace), int32(hi-lo), 0)
	})
	maxBuilt := 0
	for _, sh := range shards {
		o.noteRepair(sh.scratch.tally)
		maxBuilt = max(maxBuilt, sh.built)
	}
	o.lastImbalance = float64(maxBuilt)/(float64(len(list))/float64(s)) - 1
	if obs.Enabled() {
		for _, sh := range shards {
			hShardRebuilt.Observe(uint64(sh.built))
		}
	}
	o.commitStates(list, states)
}

// probeSweep runs the Phase-1 probe/staleness sweep over s shards (one
// runs it inline). Each target is owned by exactly one shard
// (staleFor/excluded writes stay disjoint) and folding the shard
// accumulators in shard order reproduces the serial sweep bit for bit
// (see foldSweep).
func (o *Optimizer) probeSweep(peers []overlay.PeerID, inj *fault.Injector, retries int, ttl int32, s int, report *StepReport) {
	shards := o.ensureShards(s)
	spans := o.ownerSpans(peers, s)
	for k, sh := range shards {
		sh.resetSweep()
		sh.trace, sh.traceRound = o.ringFor(k), o.tr.round
	}
	rr := o.roundRing()
	par.Run(s, s, func(_, k int) {
		sh := shards[k]
		sub := peers[spans[k][0]:spans[k][1]]
		if len(sub) == 0 {
			return
		}
		ts := ringNow(sh.trace)
		for _, b := range sub {
			o.probeOneTarget(b, inj, retries, ttl, sh)
		}
		traceShardSpan(rr, sh.trace, sh.traceRound, tracer.KindShardSweep, ts, ringNow(sh.trace), int32(len(sub)), 0)
	})
	for _, sh := range shards {
		o.foldSweep(sh, report)
	}
}

// scanPostingsSharded resolves the reverse-index postings of the event
// endpoints in parallel: endpoints are chunked across shards, each shard
// marks holders in its private bitset, and the shard sets are OR-merged
// into dst. Set union is order-free, so the resolved dirty region is
// identical to the serial scan's for any shard count or schedule.
func (o *Optimizer) scanPostingsSharded(dst *peerBitset, endpoints []overlay.PeerID, sparse bool, s int) {
	chunk := (len(endpoints) + s - 1) / s
	used := (len(endpoints) + chunk - 1) / chunk
	shards := o.ensureShards(used)
	n := o.net.N()
	par.Run(used, used, func(_, k int) {
		sh := shards[k]
		sh.dirty.reset(n)
		for _, e := range endpoints[k*chunk : min((k+1)*chunk, len(endpoints))] {
			o.rev.forEach(e, func(p overlay.PeerID, interior bool) {
				if interior || sparse {
					sh.dirty.set(p)
				}
			})
		}
	})
	for _, sh := range shards {
		dst.or(&sh.dirty)
	}
}

// roundSharded is the sharded engine's Round. The phase structure — and
// the phase spans, which wrap each fan-out end-to-end so StepReport's
// nanos stay wall-clock — mirrors the serial engine; only Phase 3's
// internals differ (propose/merge instead of in-place application).
func (o *Optimizer) roundSharded(rng *sim.RNG, s int) StepReport {
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
	// One serial draw seeds the whole sharded Phase 3; everything after
	// derives per-peer streams and merge keys from it by pure hashing.
	base := rng.Uint64()
	shards := o.proposePhase3(peers, base, s, &report)
	msp := spanShardMerge.Start()
	o.mergeProposals(shards, &report)
	report.MergeNanos = msp.End()
	report.Phase3Nanos = sp.End()
	o.tracePhase(tracer.PhasePhase3, tts)

	tts = o.traceNow()
	sp = spanRepair.Start()
	o.maintainMinDegree(rng, peers, &report)
	report.RepairNanos = sp.End()
	o.tracePhase(tracer.PhaseRepair, tts)
	o.totalOverhead += report.ProbeTraffic
	flushRoundObs(&report)
	if obs.Enabled() && report.ShardImbalance > 0 {
		hShardImbalance.Observe(uint64(report.ShardImbalance * 100))
	}
	return report
}

// proposePhase3 runs the parallel propose pass: each live peer selects
// and probes its Phase-3 candidate against the frozen network under its
// own splitmix64 stream, producing proposals and per-peer probe tallies.
// Each shard keys and sorts its own run inside the fan-out. It returns
// the shards that ran, whose sorted runs mergeProposals folds; the
// network is not mutated until then.
func (o *Optimizer) proposePhase3(peers []overlay.PeerID, base uint64, s int, report *StepReport) []*shardState {
	s = o.fanWidth(s, len(peers))
	if cap(o.peerTraffic) < len(peers) {
		o.peerTraffic = make([]float64, len(peers))
	}
	traffic := o.peerTraffic[:len(peers)]
	shards := o.ensureShards(s)
	spans := o.ownerSpans(peers, s)
	for k, sh := range shards {
		sh.props = sh.props[:0]
		sh.probes, sh.probeTimeouts, sh.blacklistHits, sh.sortNanos = 0, 0, 0, 0
		sh.trace, sh.traceRound = o.ringFor(k), o.tr.round
		if obs.Enabled() {
			hShardPeers.Observe(uint64(spans[k][1] - spans[k][0]))
		}
	}
	rr := o.roundRing()
	par.Run(s, s, func(_, k int) {
		sh := shards[k]
		lo, hi := spans[k][0], spans[k][1]
		if lo == hi {
			return
		}
		ts := ringNow(sh.trace)
		for i := lo; i < hi; i++ {
			a := peers[i]
			traffic[i] = 0
			st := o.state[a]
			if !o.net.Alive(a) || st == nil || len(st.NonFlooding) == 0 {
				continue
			}
			r := splitRNG{s: sim.SplitMix64(base ^ (uint64(a)+1)*sim.Golden)}
			var t peerTally
			switch o.cfg.Policy {
			case PolicyRandom:
				o.proposeRandom(a, st, &r, sh, &t)
			case PolicyNaive:
				o.proposeNaive(a, st, &r, sh, &t)
			case PolicyClosest:
				o.proposeClosest(a, st, sh, &t)
			}
			traffic[i] = t.traffic
			sh.probes += t.probes
			sh.probeTimeouts += t.timeouts
			sh.blacklistHits += t.hits
		}
		// Key and sort the shard's own run while other shards still
		// propose: keys are pure hashes of (seed, a, b), so merging the
		// sorted runs under the (key, a, b) order reproduces one global
		// sort of every proposal.
		mark := spanMergeSort.Start()
		for i := range sh.props {
			pr := &sh.props[i]
			pr.key = mergeKey(base, overlay.PeerID(pr.a), overlay.PeerID(pr.b))
		}
		sortProposals(sh.props)
		sh.sortNanos = mark.End()
		traceShardSpan(rr, sh.trace, sh.traceRound, tracer.KindShardPropose, ts, ringNow(sh.trace), int32(len(sh.props)), int32(hi-lo))
	})
	// Serial folds in ascending peer / shard order: float traffic first
	// (grouped per peer, so the addition tree ignores shard boundaries),
	// then the integer tallies and the propose-side imbalance.
	for i := range traffic {
		report.ProbeTraffic += traffic[i]
	}
	maxProps, totalProps := 0, 0
	for _, sh := range shards {
		report.Probes += sh.probes
		report.ProbeTimeouts += sh.probeTimeouts
		report.BlacklistHits += sh.blacklistHits
		report.MergeSortNanos += sh.sortNanos
		totalProps += len(sh.props)
		maxProps = max(maxProps, len(sh.props))
	}
	if s > 1 && totalProps > 0 {
		report.ProposeImbalance = float64(maxProps)/(float64(totalProps)/float64(s)) - 1
	}
	return shards
}

// sortProposals orders a run by (key, a, b) — the full tiebreak keeps
// the order canonical even on a 64-bit key collision.
func sortProposals(props []proposal) {
	slices.SortFunc(props, func(x, y proposal) int {
		switch {
		case x.key != y.key:
			if x.key < y.key {
				return -1
			}
			return 1
		case x.a != y.a:
			return int(x.a) - int(y.a)
		default:
			return int(x.b) - int(y.b)
		}
	})
}

// lessProp is the strict (key, a, b) order mergeRuns interleaves by.
func lessProp(x, y *proposal) bool {
	if x.key != y.key {
		return x.key < y.key
	}
	if x.a != y.a {
		return x.a < y.a
	}
	return x.b < y.b
}

// mergeRuns appends the two-way merge of sorted runs x and y to dst and
// returns it. Equal keys fall back to (a, b), which cannot collide — an
// (a, b) pair proposes at most once per round — so the merge is a strict
// total order and trivially stable.
func mergeRuns(dst, x, y []proposal) []proposal {
	dst = slices.Grow(dst, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if lessProp(&y[j], &x[i]) {
			dst = append(dst, y[j])
			j++
		} else {
			dst = append(dst, x[i])
			i++
		}
	}
	dst = append(dst, x[i:]...)
	dst = append(dst, y[j:]...)
	return dst
}

// foldRuns merges the shards' sorted runs into one (key, a, b)-ordered
// stream, folding them in one at a time through two ping-pong buffers:
// each merge reads the buffer the previous one wrote and writes the
// other. The sorted order of a fixed set under a total order is unique,
// so the stream equals one global sort of every proposal. A single
// shard's run is returned as is. The result is valid until the next
// fold.
func foldRuns(bufs *[2][]proposal, shards []*shardState) []proposal {
	stream := shards[0].props
	for k, sh := range shards[1:] {
		bufs[k&1] = mergeRuns(bufs[k&1][:0], stream, sh.props)
		stream = bufs[k&1]
	}
	return stream
}

// probePropose prices one propose-pass delay measurement from a to
// candidate h — the sharded counterpart of probe(), accumulating into
// the peer's tally instead of the shared report and tracing onto the
// shard's own track.
func (o *Optimizer) probePropose(av overlay.CostView, a, h overlay.PeerID, t *peerTally, sh *shardState) (float64, bool) {
	t.probes++
	c := av.To(h)
	t.traffic += o.cfg.ProbeCost * c
	if inj := o.net.Faults(); inj != nil && inj.ProbeTimeout(int(a), int(h), 0) {
		t.timeouts++
		traceInstant(sh.trace, sh.traceRound, tracer.KindProbeTimeout, int32(h), int32(a), 0)
		return c, false
	}
	traceInstant(sh.trace, sh.traceRound, tracer.KindProbe, int32(a), int32(h), c)
	return c, true
}

// figure4Costs resolves the static a—b and b—h delays of a probed
// triangle and reports whether the candidate can take a Figure-4(b) or
// 4(c) branch at all: 4(d) — rejected because the candidate beats
// neither a—b nor b—h — depends only on the oracle's static physical
// costs and has no side effects in the apply path, so the propose pass
// filters clear rejects here instead of shipping them through the
// merge. After convergence most random candidates reject, so this is
// what keeps the merge proportional to the accepted rewiring rate
// rather than the population. The resolved costs travel in the proposal
// so the apply path never refetches a cost vector.
func (o *Optimizer) figure4Costs(av overlay.CostView, b, h overlay.PeerID, ah float64) (ab, bh float64, actionable bool) {
	ab = av.To(b)
	bh = o.net.CostsFrom(b).To(h)
	return ab, bh, ah < ab || ah < bh
}

// proposeRandom is the propose-pass half of phase3Random: the same
// rejection-sampled candidate pick per non-flooding neighbor, but the
// Figure-4 decision is deferred to the merge (the probed cost is
// static, so deciding there is equivalent and sees the freshest
// adjacency).
func (o *Optimizer) proposeRandom(a overlay.PeerID, st *PeerState, r *splitRNG, sh *shardState, t *peerTally) {
	av := o.net.CostsFrom(a)
	for _, b := range st.NonFlooding {
		if !o.net.Alive(b) || !o.net.HasEdge(a, b) {
			continue
		}
		nb := o.net.NeighborsView(b)
		if len(nb) == 0 {
			continue
		}
		for tries := 0; tries < 4; tries++ {
			h := nb[r.intn(len(nb))]
			if h == a || !o.net.Alive(h) || o.atCap(h) || o.net.HasEdge(a, h) {
				continue
			}
			if o.blacklisted(h) {
				t.hits++
				continue
			}
			if ah, ok := o.probePropose(av, a, h, t, sh); ok {
				if ab, bh, act := o.figure4Costs(av, b, h, ah); act {
					sh.props = append(sh.props, proposal{
						ah: float32(ah), ab: float32(ab), bh: float32(bh),
						a: uint32(a), b: uint32(b), h: uint32(h), kind: propFigure4,
					})
				}
			}
			break
		}
	}
}

// proposeNaive is the propose-pass half of phase3Naive: target the most
// expensive non-flooding neighbor, probe a few shuffled candidates, and
// propose the best improvement found.
func (o *Optimizer) proposeNaive(a overlay.PeerID, st *PeerState, r *splitRNG, sh *shardState, t *peerTally) {
	av := o.net.CostsFrom(a)
	var worst overlay.PeerID = -1
	worstCost := -1.0
	for _, b := range st.NonFlooding {
		if !o.net.Alive(b) || !o.net.HasEdge(a, b) {
			continue
		}
		if c := av.To(b); c > worstCost {
			worst, worstCost = b, c
		}
	}
	if worst < 0 {
		return
	}
	sh.candBuf = o.candidatesInto(sh.candBuf[:0], a, worst, &t.hits)
	cands := sh.candBuf
	if len(cands) == 0 {
		return
	}
	for i := len(cands) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		cands[i], cands[j] = cands[j], cands[i]
	}
	if len(cands) > o.cfg.NaiveProbes {
		cands = cands[:o.cfg.NaiveProbes]
	}
	best, bestCost := overlay.PeerID(-1), worstCost
	for _, h := range cands {
		if c, ok := o.probePropose(av, a, h, t, sh); ok && c < bestCost {
			best, bestCost = h, c
		}
	}
	if best >= 0 {
		sh.props = append(sh.props, proposal{
			ah: float32(bestCost),
			a:  uint32(a), b: uint32(worst), h: uint32(best), kind: propNaive,
		})
	}
}

// proposeClosest is the propose-pass half of phase3Closest: probe every
// candidate of every non-flooding neighbor and propose the closest.
func (o *Optimizer) proposeClosest(a overlay.PeerID, st *PeerState, sh *shardState, t *peerTally) {
	av := o.net.CostsFrom(a)
	bestB, bestH, bestCost := overlay.PeerID(-1), overlay.PeerID(-1), 0.0
	for _, b := range st.NonFlooding {
		if !o.net.Alive(b) || !o.net.HasEdge(a, b) {
			continue
		}
		sh.candBuf = o.candidatesInto(sh.candBuf[:0], a, b, &t.hits)
		for _, h := range sh.candBuf {
			c, ok := o.probePropose(av, a, h, t, sh)
			if ok && (bestH < 0 || c < bestCost) {
				bestB, bestH, bestCost = b, h, c
			}
		}
	}
	if bestH >= 0 {
		if ab, bh, act := o.figure4Costs(av, bestB, bestH, bestCost); act {
			sh.props = append(sh.props, proposal{
				ah: float32(bestCost), ab: float32(ab), bh: float32(bh),
				a: uint32(a), b: uint32(bestB), h: uint32(bestH), kind: propFigure4,
			})
		}
	}
}

// mergeKey orders proposals in the serial merge: a pure splitmix64 hash
// of (round seed, proposer, target), so the application order is fixed
// by the seed — independent of shard layout and goroutine schedule —
// yet uncorrelated with peer ids, giving no peer a standing priority
// across rounds.
func mergeKey(base uint64, a, b overlay.PeerID) uint64 {
	return sim.SplitMix64(base ^ (uint64(a)+1)*sim.Golden ^ (uint64(b)+1)*0x94d049bb133111eb)
}

// mergeProposals is the merge: it folds the shards' sorted runs into the
// key-ordered stream and applies it serially, one proposal at a time.
// All overlay mutation of Phase 3 happens here.
func (o *Optimizer) mergeProposals(shards []*shardState, report *StepReport) {
	mts := o.traceNow()
	props := foldRuns(&o.mergeBufs, shards)
	for i := range props {
		o.applyOne(&props[i], report)
	}
	traceSpan(o.roundRing(), o.tr.round, tracer.KindMerge, mts, int32(len(props)), 0)
}

// applyOne revalidates one proposal against the live network (an earlier
// merged proposal may have consumed the edge, saturated the candidate,
// or blacklisted it) and applies it through the exact mutation paths the
// serial engine uses. The triangle costs ride in the proposal — float32
// round-trips of the oracle's float32 vectors, widened back bit-exactly
// — so no cost vector is fetched here.
func (o *Optimizer) applyOne(pr *proposal, report *StepReport) {
	a, b, h := overlay.PeerID(pr.a), overlay.PeerID(pr.b), overlay.PeerID(pr.h)
	if !o.net.Alive(a) || !o.net.Alive(b) || !o.net.Alive(h) {
		return
	}
	if !o.net.HasEdge(a, b) || o.net.HasEdge(a, h) || o.atCap(h) {
		return
	}
	if o.blacklisted(h) {
		report.BlacklistHits++
		return
	}
	switch pr.kind {
	case propNaive:
		// The naive policy decided at propose time (candidate beat the
		// worst neighbor); the merge only applies it safely.
		o.replace(a, b, h, report)
	default:
		o.applyFigure4Decided(a, b, h, float64(pr.ah), float64(pr.ab), float64(pr.bh), report)
	}
}
