// Package tracer is the engine's causal-trace layer: structured events
// (round/phase/shard/peer/query scoped, monotonic timestamps) recorded
// into fixed-capacity ring buffers, one ring per writer — a shard, the
// overlay mutator, a flood kernel — so the hot paths never contend.
//
// It follows the obs registry's discipline exactly (see internal/obs):
//
//  1. Zero overhead while disabled. Every recording site is one
//     predictable-branch load of the tracer's enable flag (or of a ring
//     pointer that is nil while disabled) and nothing else.
//  2. No perturbation. Tracing never touches an RNG stream, never
//     reorders events, and never feeds a value back into the
//     simulation: enabling it cannot change any simulated result bit
//     for bit (pinned by TestTraceEnabledDoesNotPerturb in
//     internal/core and the flood equivalence test in internal/gnutella).
//  3. Bounded memory while enabled. Rings are fixed-capacity; when a
//     ring wraps, the oldest events are overwritten and counted as
//     dropped — capture never allocates proportionally to run length.
//
// Timestamps are wall-clock nanoseconds since Enable and therefore NOT
// deterministic; nothing in the engine reads them back. The determinism
// contract covers simulated state only.
//
// Sinks: Chrome trace-event JSON and JSONL plus the windowed HTTP
// handler (export.go), the anomaly-triggered flight recorder
// (flight.go), and the critical-path analyzer (analyze.go).
package tracer

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Kind enumerates the trace event types. Span kinds carry a non-zero
// Dur; instants have Dur == 0.
type Kind uint8

const (
	// Round engine (A/B/V semantics per kind; Round is the tracer's
	// round sequence, assigned by BeginRound).
	KindRoundStart   Kind = iota + 1 // instant; A = live peers
	KindPhase                        // span; A = phase index (see PhaseName)
	KindShardBuild                   // span; A = states built by the shard
	KindShardSweep                   // span; A = probe targets swept
	KindShardPropose                 // span; A = proposals emitted
	KindMerge                        // span; A = proposals in the merged stream

	// Phase-2 rebuild decisions, one per dirty peer.
	KindBuildReuse  // instant; A = peer (identity fast path reused the state)
	KindBuildRepair // instant; A = peer (tree repaired incrementally)
	KindBuildDense  // instant; A = peer (dense Prim rebuild)

	// Phase-1/3 probe protocol and fault reactions.
	KindProbe        // instant; A = prober, B = candidate, V = measured cost
	KindProbeRetry   // instant; A = prober, B = target, V = attempt number
	KindProbeTimeout // instant; A = target nobody reached this cycle
	KindStaleServe   // instant; A = target, V = staleness age (last-known-good served)
	KindStaleExpire  // instant; A = target crossed StaleTTL, excluded
	KindStaleReadmit // instant; A = target readmitted after a successful probe
	KindConnect      // instant; A = dialer, B = target (dial succeeded)
	KindConnectFail  // instant; A = dialer, B = target (injector failed the dial)
	KindBlacklist    // instant; B = target, V = blacklist rounds installed
	KindCrashPurge   // instant; A = holder, B = dead peer (half-open edge purged)

	// Overlay membership (cause markers for the fault-reaction timeline).
	KindPeerJoin  // instant; A = peer
	KindPeerLeave // instant; A = peer
	KindPeerCrash // instant; A = peer

	// Flood kernel, all GUID-stamped.
	KindQueryBegin   // instant; A = source
	KindQueryArrive  // instant; A = peer, B = sender, V = arrival ms
	KindQueryForward // instant; A = forwarder, B = sends in the batch, V = virtual ms
	KindQueryDrop    // instant; A = sender, B = target (fault plan lost the message)
	KindQueryRespond // instant; A = responder, V = response ms back at the source
	KindQueryEnd     // instant; A = scope, B = transmissions, V = first-response ms

	kindMax
)

var kindNames = [...]string{
	KindRoundStart:   "round_start",
	KindPhase:        "phase",
	KindShardBuild:   "shard_build",
	KindShardSweep:   "shard_sweep",
	KindShardPropose: "shard_propose",
	KindMerge:        "merge",
	KindBuildReuse:   "build_reuse",
	KindBuildRepair:  "build_repair",
	KindBuildDense:   "build_dense",
	KindProbe:        "probe",
	KindProbeRetry:   "probe_retry",
	KindProbeTimeout: "probe_timeout",
	KindStaleServe:   "stale_serve",
	KindStaleExpire:  "stale_expire",
	KindStaleReadmit: "stale_readmit",
	KindConnect:      "connect",
	KindConnectFail:  "connect_fail",
	KindBlacklist:    "blacklist",
	KindCrashPurge:   "crash_purge",
	KindPeerJoin:     "peer_join",
	KindPeerLeave:    "peer_leave",
	KindPeerCrash:    "peer_crash",
	KindQueryBegin:   "query_begin",
	KindQueryArrive:  "query_arrive",
	KindQueryForward: "query_forward",
	KindQueryDrop:    "query_drop",
	KindQueryRespond: "query_respond",
	KindQueryEnd:     "query_end",
}

// String returns the export name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Phase indices carried in KindPhase's A field.
const (
	PhaseRebuild = 0
	PhasePhase3  = 1
	PhaseRepair  = 2
)

// PhaseName renders a KindPhase A value.
func PhaseName(i int32) string {
	switch i {
	case PhaseRebuild:
		return "rebuild"
	case PhasePhase3:
		return "phase3"
	case PhaseRepair:
		return "repair"
	}
	return "phase?"
}

// Event is one trace record: 48 fixed bytes, no pointers, so recording
// is a struct copy into the ring's preallocated buffer.
type Event struct {
	TS    int64   // nanoseconds since Enable (monotonic)
	Dur   int64   // span duration in nanoseconds; 0 for instants
	GUID  uint64  // query id (flood kinds); 0 otherwise
	V     float64 // kind-specific value
	Round int32   // tracer round sequence at record time
	A     int32   // kind-specific peer/count
	B     int32   // kind-specific peer/count
	Track int32   // ring id, stamped by Record
	Kind  Kind
}

// Ring is one writer's fixed-capacity event buffer. Exactly one
// goroutine records into a ring at a time (rings are handed out per
// shard / per kernel); the mutex exists for concurrent capture — the
// HTTP handler or the flight recorder reading while the engine writes —
// and is uncontended on the record path.
type Ring struct {
	id   int32
	name string

	mu  sync.Mutex
	buf []Event
	pos uint64 // total events ever recorded; buf index = pos % cap
}

// ID returns the ring's track id.
func (r *Ring) ID() int32 { return r.id }

// Name returns the ring's display name (the export track name).
func (r *Ring) Name() string { return r.name }

// Record appends one event, overwriting the oldest when the ring is
// full. The event's Track is stamped with the ring id.
func (r *Ring) Record(ev Event) {
	ev.Track = r.id
	r.mu.Lock()
	r.buf[r.pos%uint64(len(r.buf))] = ev
	r.pos++
	r.mu.Unlock()
}

// Track returns the ring's id — the track exported events carry.
func (r *Ring) Track() int32 { return r.id }

// RecordAs appends one event stamped with another ring's track id.
// Low-rate summaries of a chatty track (per-round shard work spans)
// record through a quiet ring this way: the event survives wrap on
// the track it describes, while exports and analysis still attribute
// it there. Unlike the single-writer ring discipline, RecordAs
// callers may share the quiet ring across goroutines — the internal
// lock makes that safe, and the per-round rate makes it cheap.
func (r *Ring) RecordAs(track int32, ev Event) {
	ev.Track = track
	r.mu.Lock()
	r.buf[r.pos%uint64(len(r.buf))] = ev
	r.pos++
	r.mu.Unlock()
}

// Len reports how many events the ring currently retains.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pos < uint64(len(r.buf)) {
		return int(r.pos)
	}
	return len(r.buf)
}

// Dropped reports how many events the ring has overwritten.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pos < uint64(len(r.buf)) {
		return 0
	}
	return r.pos - uint64(len(r.buf))
}

// snapshotInto appends the retained events, oldest first, to dst.
func (r *Ring) snapshotInto(dst []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.pos <= n {
		return append(dst, r.buf[:r.pos]...)
	}
	head := r.pos % n
	dst = append(dst, r.buf[head:]...)
	return append(dst, r.buf[:head]...)
}

// DefaultCapacity is the per-ring event capacity Enable uses when the
// caller passes 0: 256Ki events × 48 bytes ≈ 12 MB per ring — sized so
// a shard track at 2000-peer scale (≈2k fault/build events per round)
// retains a full 60-round session without wrapping.
const DefaultCapacity = 1 << 18

// FlightCapacity is the smaller per-ring capacity the flight recorder
// runs with — enough for the last few rounds of a mid-size run while
// keeping the always-on footprint under ~400 KB per ring.
const FlightCapacity = 1 << 13

// Tracer owns the enable gate, the ring registry, the trace clock, and
// the round/query sequence counters. All engine packages record through
// the process-wide Default tracer.
type Tracer struct {
	on atomic.Bool

	mu    sync.Mutex
	rings []*Ring
	cap   int
	gen   uint64
	runID uint64
	start time.Time

	round atomic.Int32
	qid   atomic.Uint64
}

var defaultTracer = &Tracer{}

// Default returns the process-wide tracer.
func Default() *Tracer { return defaultTracer }

// On reports whether the default tracer is recording — the one-load
// gate every instrumentation site checks first.
func On() bool { return defaultTracer.on.Load() }

// Enable turns the default tracer on (see Tracer.Enable).
func Enable(capPerRing int) { defaultTracer.Enable(capPerRing) }

// Disable turns the default tracer off.
func Disable() { defaultTracer.Disable() }

// Enable turns recording on with the given per-ring capacity (0 selects
// DefaultCapacity). It resets the trace: rings handed out before this
// call are orphaned (the generation bump makes holders re-acquire), the
// clock restarts, and the round/query sequences rewind.
func (t *Tracer) Enable(capPerRing int) {
	t.mu.Lock()
	if capPerRing <= 0 {
		capPerRing = DefaultCapacity
	}
	t.cap = capPerRing
	t.gen++
	t.rings = nil
	t.start = time.Now()
	t.runID = uint64(t.start.UnixNano())*0x9e3779b97f4a7c15 + t.gen
	t.mu.Unlock()
	t.round.Store(0)
	t.qid.Store(0)
	t.on.Store(true)
}

// Disable turns recording off. Retained events stay capturable.
func (t *Tracer) Disable() { t.on.Store(false) }

// Enabled reports whether the tracer is recording.
func (t *Tracer) Enabled() bool { return t.on.Load() }

// Gen returns the current enable generation. Ring holders cache it and
// re-acquire their ring when it moves (a later Enable reset the trace).
func (t *Tracer) Gen() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen
}

// RunID returns the per-run trace id minted by Enable, for joining
// JSONL metric rows to trace captures.
func (t *Tracer) RunID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.runID
}

// SetRunID overrides the run id (drivers that derive it from their seed).
func (t *Tracer) SetRunID(id uint64) {
	t.mu.Lock()
	t.runID = id
	t.mu.Unlock()
}

// NewRing registers and returns a fresh ring named name. Acquisition is
// a cold path (once per writer per enable generation); recording never
// takes the tracer lock.
func (t *Tracer) NewRing(name string) *Ring {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.cap
	if c <= 0 {
		c = DefaultCapacity
	}
	r := &Ring{id: int32(len(t.rings)), name: name, buf: make([]Event, c)}
	t.rings = append(t.rings, r)
	return r
}

// Now returns the trace clock: nanoseconds since Enable.
func (t *Tracer) Now() int64 { return int64(time.Since(t.start)) }

// BeginRound advances and returns the round sequence. The round engine
// calls it once per traced round; everything recorded until the next
// call carries this sequence.
func (t *Tracer) BeginRound() int32 { return t.round.Add(1) }

// RoundSeq returns the current round sequence without advancing it.
func (t *Tracer) RoundSeq() int32 { return t.round.Load() }

// NextQueryID mints a query GUID. The counter is tracer-local: it never
// feeds back into the simulation, so minting ids cannot perturb it.
func (t *Tracer) NextQueryID() uint64 { return t.qid.Add(1) }

// Capture is a point-in-time copy of the trace: every retained event,
// globally time-ordered, plus the track names and the run id.
type Capture struct {
	RunID  uint64
	Events []Event
	Tracks map[int32]string
	// Dropped counts events the rings overwrote before this capture.
	Dropped uint64
}

// Capture snapshots every ring.
func (t *Tracer) Capture() Capture { return t.CaptureSince(0) }

// CaptureSince snapshots every ring, keeping only events whose round
// sequence is at least minRound (0 keeps everything — including
// pre-round and query events recorded outside any round window).
func (t *Tracer) CaptureSince(minRound int32) Capture {
	t.mu.Lock()
	rings := slices.Clone(t.rings)
	runID := t.runID
	t.mu.Unlock()
	c := Capture{RunID: runID, Tracks: make(map[int32]string, len(rings))}
	for _, r := range rings {
		c.Tracks[r.id] = r.name
		c.Dropped += r.Dropped()
		c.Events = r.snapshotInto(c.Events)
	}
	if minRound > 0 {
		kept := c.Events[:0]
		for _, ev := range c.Events {
			if ev.Round >= minRound {
				kept = append(kept, ev)
			}
		}
		c.Events = kept
	}
	slices.SortStableFunc(c.Events, func(a, b Event) int {
		switch {
		case a.TS != b.TS:
			if a.TS < b.TS {
				return -1
			}
			return 1
		case a.Track != b.Track:
			return int(a.Track) - int(b.Track)
		default:
			return 0
		}
	})
	return c
}
