package core

import (
	"fmt"

	"ace/internal/obs/tracer"
)

// Causal-trace plumbing for the round engines. The discipline mirrors
// the obs registry: one atomic load per round while disabled
// (tracer.On in traceRoundBegin), and while enabled the inner loops
// gate on cached nil-able ring pointers — never on the atomic — so the
// hot paths cost one predictable branch either way. Nothing recorded
// here feeds back into the simulation; the trace round sequence and
// timestamps live entirely on the tracer's side.

// traceState is the optimizer's cached view of the process tracer,
// refreshed once per round.
type traceState struct {
	on    bool
	gen   uint64
	round int32
	// rr is the round-scope track: round-start markers, phase spans,
	// and merge spans. It is deliberately low-traffic (a handful of
	// events per round) so ring wrap on the chatty shard tracks can
	// never evict the round skeleton the analyzer rebuilds from.
	rr *tracer.Ring
	// rings[k] is shard k's track; ring 0 also receives the serial
	// engine's per-event fault reactions (probes, connects, purges).
	rings []*tracer.Ring
}

// traceRoundBegin refreshes the cached tracer state at a round
// boundary and, when tracing, advances the trace round sequence and
// records the round-start marker.
func (o *Optimizer) traceRoundBegin(peerCount int) {
	if !o.traceSync() {
		return
	}
	t := tracer.Default()
	o.tr.round = t.BeginRound()
	o.roundRing().Record(tracer.Event{
		TS: t.Now(), Round: o.tr.round, Kind: tracer.KindRoundStart, A: int32(peerCount),
	})
}

// traceSync refreshes the cached tracer state WITHOUT advancing the
// round sequence — for entry points like the standalone RebuildTrees
// that do round-shaped work inside (or after) an existing round. Its
// events attach to the current trace round, so a driver's trailing
// finalize rebuild is attributed to the round it finalizes rather
// than fabricating an empty round of its own. Returns o.tr.on.
func (o *Optimizer) traceSync() bool {
	if !tracer.On() {
		o.tr.on = false
		return false
	}
	t := tracer.Default()
	if g := t.Gen(); g != o.tr.gen {
		// A later Enable reset the trace; the old rings are orphaned.
		o.tr.gen = g
		o.tr.rr = nil
		o.tr.rings = o.tr.rings[:0]
		o.tr.round = t.RoundSeq()
	}
	o.tr.on = true
	return true
}

// roundRing returns the round-scope track, registering it on first
// use per enable generation (nil while tracing is off).
func (o *Optimizer) roundRing() *tracer.Ring {
	if !o.tr.on {
		return nil
	}
	if o.tr.rr == nil {
		o.tr.rr = tracer.Default().NewRing("rounds")
	}
	return o.tr.rr
}

// traceRing returns shard k's ring, registering rings up to k — a cold
// path, once per shard per enable generation.
func (o *Optimizer) traceRing(k int) *tracer.Ring {
	for len(o.tr.rings) <= k {
		o.tr.rings = append(o.tr.rings, tracer.Default().NewRing(fmt.Sprintf("shard %d", len(o.tr.rings))))
	}
	return o.tr.rings[k]
}

// ringFor returns shard k's ring, or nil while tracing is off — the
// cached pointer fan-outs hand to their workers.
func (o *Optimizer) ringFor(k int) *tracer.Ring {
	if !o.tr.on {
		return nil
	}
	return o.traceRing(k)
}

// ring0 is the round-scope track (nil while tracing is off).
func (o *Optimizer) ring0() *tracer.Ring { return o.ringFor(0) }

// traceNow reads the trace clock, or 0 while tracing is off.
func (o *Optimizer) traceNow() int64 {
	if !o.tr.on {
		return 0
	}
	return tracer.Default().Now()
}

// tracePhase records one phase span on the round track, from the
// traceNow() value captured at phase start.
func (o *Optimizer) tracePhase(phase int32, start int64) {
	if !o.tr.on {
		return
	}
	t := tracer.Default()
	o.roundRing().Record(tracer.Event{
		TS: start, Dur: t.Now() - start, Round: o.tr.round, A: phase, Kind: tracer.KindPhase,
	})
}

// ringNow reads the trace clock for a ring-gated span, 0 when r is nil.
func ringNow(r *tracer.Ring) int64 {
	if r == nil {
		return 0
	}
	return tracer.Default().Now()
}

// traceSpan records a span on r from the ringNow(r) value captured at
// its start; no-op when r is nil.
func traceSpan(r *tracer.Ring, round int32, kind tracer.Kind, start int64, a, b int32) {
	if r == nil {
		return
	}
	r.Record(tracer.Event{
		TS: start, Dur: tracer.Default().Now() - start, Round: round, Kind: kind, A: a, B: b,
	})
}

// traceShardSpan records a per-shard work span [start, end) through the
// round-scope ring rr, attributed to shard ring r's track (see
// Ring.RecordAs); both ends are ringNow(r) readings. The
// chatty shard tracks wrap long before a full session ends; routing
// the few summary spans per round through the quiet ring keeps the
// analyzer's straggler attribution intact for every round while the
// spans still render on the shard's own track. No-op when r is nil.
// Shard goroutines share rr here — RecordAs is locked, and the rate is
// a handful of events per round.
func traceShardSpan(rr, r *tracer.Ring, round int32, kind tracer.Kind, start, end int64, a, b int32) {
	if r == nil || rr == nil {
		return
	}
	rr.RecordAs(r.Track(), tracer.Event{
		TS: start, Dur: end - start, Round: round, Kind: kind, A: a, B: b,
	})
}

// traceInstant records an instant on r; no-op when r is nil.
func traceInstant(r *tracer.Ring, round int32, kind tracer.Kind, a, b int32, v float64) {
	if r == nil {
		return
	}
	r.Record(tracer.Event{
		TS: tracer.Default().Now(), Round: round, Kind: kind, A: a, B: b, V: v,
	})
}
