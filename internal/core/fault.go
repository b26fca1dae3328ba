package core

import (
	"ace/internal/fault"
	"ace/internal/obs/tracer"
	"ace/internal/overlay"
)

// This file is the optimizer's side of the fault model: how ACE reacts
// when the substrate the paper assumes perfect starts failing. The
// injection itself lives in internal/fault; everything here is protocol
// hardening driven by it:
//
//   - Crash debris: a crashed peer leaves half-open edges in its
//     neighbors' adjacency. The holders detect them via their next
//     periodic probe (which times out), pay for that probe, and purge
//     the edge — so debris survives at most one round before the
//     MinDegree repair path re-knits the survivors.
//   - Phase-1 probe retry: a probe that times out is retried with
//     exponential backoff (2^(k−1) probe intervals, capped) under the
//     per-round ProbeRetryBudget; each retry pays probe traffic.
//   - Staleness: when EVERY prober of a peer exhausts its retries in
//     one cycle, that peer's table entries went unrefreshed and its
//     staleness age grows. Entries are served last-known-good while the
//     age is below StaleTTL (costs come from the most recent successful
//     exchange — the physical delays themselves are stationary, so the
//     cached values are exactly the last-known-good readings); at
//     StaleTTL the peer is excluded from closures, so Phase-2 MSTs
//     degrade by shrinking rather than spanning garbage. Any successful
//     probe resets the age and readmits the peer.
//   - Dial blacklist: Phase-3/bootstrap connection attempts can fail; a
//     streak of BlacklistAfter consecutive failures blacklists the
//     target for BlacklistBase rounds, doubling per re-blacklisting up
//     to BlacklistCap, so the optimizer stops burning probes on dead
//     candidates. One successful connection clears the history.
//
// Everything is sized lazily and gated on (injector attached || debris
// present), so clean runs never touch this state — pinned bit-identical
// by TestFaultNilInjectorDoesNotPerturb.

// ensureFaultState sizes the per-peer fault arrays.
func (o *Optimizer) ensureFaultState() {
	if n := o.net.N(); len(o.staleFor) < n {
		o.staleFor = make([]int32, n)
		o.excluded = make([]bool, n)
		o.dialFails = make([]uint8, n)
		o.blackExp = make([]uint8, n)
		o.blackUntil = make([]int32, n)
	}
}

// staleTTL resolves the configured TTL (0 selects DefaultStaleTTL).
func (o *Optimizer) staleTTL() int32 {
	if o.cfg.StaleTTL > 0 {
		return int32(o.cfg.StaleTTL)
	}
	return DefaultStaleTTL
}

// retryLimit is the effective per-probe retry count: the backoff window
// of 2^ProbeBackoffCap probe intervals fits at most ProbeBackoffCap
// exponentially spaced retries, so the cap saturates the budget.
func (o *Optimizer) retryLimit() int {
	if o.cfg.ProbeRetryBudget < o.cfg.ProbeBackoffCap {
		return o.cfg.ProbeRetryBudget
	}
	return o.cfg.ProbeBackoffCap
}

// faultPhase runs before each round's rebuild: it advances the injector
// clock, purges crash debris, and re-runs the Phase-1 probe/staleness
// protocol. It appends every exclusion change to o.exclFlips so the
// dirty-region resolver can invalidate closures the journal knows
// nothing about.
func (o *Optimizer) faultPhase(peers []overlay.PeerID, report *StepReport) {
	o.exclFlips = o.exclFlips[:0]
	inj := o.net.Faults()
	if inj == nil && o.net.Dangling() == 0 {
		return
	}
	o.ensureFaultState()
	o.roundNum++
	inj.Advance(o.roundNum)

	// Crash debris: each holder's periodic probe of its dead neighbor
	// times out (paid), after which the half-open edge is purged. The
	// crash already journaled the disconnect, so the rebuild that
	// follows sees exactly the post-purge adjacency.
	if o.net.Dangling() > 0 {
		o.dangleBuf = o.net.DanglingPairs(o.dangleBuf[:0])
		r0 := o.ring0()
		for _, dp := range o.dangleBuf {
			report.ProbeTraffic += o.cfg.ProbeCost * o.net.CostsFrom(dp.Holder).To(dp.Dead)
			report.ProbeTimeouts++
			report.PurgedEdges++
			traceInstant(r0, o.tr.round, tracer.KindCrashPurge, int32(dp.Holder), int32(dp.Dead), 0)
			o.net.PurgeDangling(dp.Holder, dp.Dead)
		}
	}
	if inj == nil {
		return
	}

	// Phase-1 probe protocol, per target: each live neighbor probes the
	// target, retrying on timeout. The first attempt is already priced
	// into the exchange contribution; only retries pay extra. A target
	// nobody reached this cycle ages toward StaleTTL.
	//
	// Targets are independent (each target's pass writes only its own
	// staleFor/excluded slots and reads frozen network state), so the
	// sharded engine fans the sweep out across shards; the serial engine
	// runs the same per-target body inline through shard 0's
	// accumulators, and foldSweep re-serializes both into the legacy
	// accumulation order.
	s := max(1, o.fanWidth(o.shardCount(), len(peers)))
	o.probeSweep(peers, inj, o.retryLimit(), o.staleTTL(), s, report)
}

// probeOneTarget runs one target's share of the Phase-1 probe/staleness
// protocol, accumulating into the shard's sweep buffers. It writes only
// b's staleFor/excluded slots, so targets can run concurrently as long
// as no two shards share a target.
func (o *Optimizer) probeOneTarget(b overlay.PeerID, inj *fault.Injector, retries int, ttl int32, sh *shardState) {
	probers := o.net.NeighborsView(b)
	reached := len(probers) == 0 // an isolated peer has no entries to go stale
	for _, a := range probers {
		if !o.net.Alive(a) {
			continue
		}
		cab := -1.0
		for k := 0; k <= retries; k++ {
			if k > 0 {
				if cab < 0 {
					cab = o.net.CostsFrom(a).To(b)
				}
				sh.retries++
				sh.retryCosts = append(sh.retryCosts, o.cfg.ProbeCost*cab)
				traceInstant(sh.trace, sh.traceRound, tracer.KindProbeRetry, int32(a), int32(b), float64(k))
			}
			if !inj.ProbeTimeout(int(a), int(b), k) {
				reached = true
				break
			}
		}
	}
	if reached {
		if o.staleFor[b] != 0 {
			traceInstant(sh.trace, sh.traceRound, tracer.KindStaleReadmit, int32(b), 0, float64(o.staleFor[b]))
			o.staleFor[b] = 0
			if o.excluded[b] {
				o.excluded[b] = false
				sh.flips = append(sh.flips, b)
			}
		}
		return
	}
	sh.timeouts++
	o.staleFor[b]++
	traceInstant(sh.trace, sh.traceRound, tracer.KindProbeTimeout, int32(b), -1, 0)
	switch {
	case o.staleFor[b] == 1:
		sh.staleMarked++
	case o.staleFor[b] == ttl:
		sh.staleExpired++
	}
	if sh.trace != nil {
		if o.staleFor[b] == ttl {
			traceInstant(sh.trace, sh.traceRound, tracer.KindStaleExpire, int32(b), 0, float64(ttl))
		} else if o.staleFor[b] < ttl {
			// Entries for b are being served last-known-good this round.
			traceInstant(sh.trace, sh.traceRound, tracer.KindStaleServe, int32(b), 0, float64(o.staleFor[b]))
		}
	}
	if o.staleFor[b] >= ttl && !o.excluded[b] {
		o.excluded[b] = true
		sh.flips = append(sh.flips, b)
	}
}

// foldSweep folds one shard's sweep accumulators into the report and the
// optimizer's exclusion-flip list. Retry costs were captured one per
// retry in target order, and shards own ascending contiguous ranges of
// the ascending live-peer slice, so folding shards in order reproduces
// the serial engine's float additions term for term — sharded Phase 1
// stays bit-identical to serial.
func (o *Optimizer) foldSweep(sh *shardState, report *StepReport) {
	report.ProbeRetries += sh.retries
	report.ProbeTimeouts += sh.timeouts
	report.StaleMarked += sh.staleMarked
	report.StaleExpired += sh.staleExpired
	for _, c := range sh.retryCosts {
		report.ProbeTraffic += c
	}
	o.exclFlips = append(o.exclFlips, sh.flips...)
}

// blacklisted reports whether h currently sits on the dial blacklist.
func (o *Optimizer) blacklisted(h overlay.PeerID) bool {
	return len(o.blackUntil) != 0 && o.roundNum < int(o.blackUntil[h])
}

// tryConnect is net.Connect with fault injection: the dial can fail
// (feeding the blacklist streak), and a success clears the target's
// failure history. With no injector it is a plain Connect.
func (o *Optimizer) tryConnect(a, h overlay.PeerID, report *StepReport) bool {
	inj := o.net.Faults()
	r0 := o.ring0()
	if inj != nil && inj.ConnectFails(int(a), int(h)) {
		report.FailedConnects++
		blackRounds := o.noteDialFailure(h)
		traceInstant(r0, o.tr.round, tracer.KindConnectFail, int32(a), int32(h), 0)
		if blackRounds > 0 {
			traceInstant(r0, o.tr.round, tracer.KindBlacklist, int32(a), int32(h), float64(blackRounds))
		}
		return false
	}
	if !o.net.Connect(a, h) {
		return false
	}
	traceInstant(r0, o.tr.round, tracer.KindConnect, int32(a), int32(h), 0)
	if inj != nil {
		o.dialFails[h] = 0
		o.blackExp[h] = 0
	}
	return true
}

// noteDialFailure advances h's failure streak and blacklists it when
// the streak reaches BlacklistAfter: the first blacklist lasts
// BlacklistBase rounds and each subsequent one doubles, capped at
// BlacklistCap, until a successful dial clears the exponent. It returns
// the blacklist duration installed by this failure (0 when none), so
// callers can attribute the blacklisting without re-deriving the state.
func (o *Optimizer) noteDialFailure(h overlay.PeerID) int {
	if o.cfg.BlacklistAfter <= 0 {
		return 0
	}
	o.dialFails[h]++
	if int(o.dialFails[h]) < o.cfg.BlacklistAfter {
		return 0
	}
	o.dialFails[h] = 0
	dur := o.cfg.BlacklistBase << o.blackExp[h]
	if o.cfg.BlacklistCap > 0 && dur > o.cfg.BlacklistCap {
		dur = o.cfg.BlacklistCap
	} else if o.blackExp[h] < 30 {
		o.blackExp[h]++
	}
	o.blackUntil[h] = int32(o.roundNum + dur)
	return dur
}
