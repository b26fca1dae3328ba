package gnutella

import (
	"math"
	"time"

	"ace/internal/core"
	"ace/internal/obs/tracer"
	"ace/internal/overlay"
)

// QueryResult summarizes one query flood, in the paper's §4.2 metrics.
// It is the one declaration of every query metric: a field's json tag
// is its key in a -metrics query line (QueryRecord); fields tagged
// json:"-" stay out of the stream.
type QueryResult struct {
	// Scope is the number of peers the query reached, including the
	// source (the paper's search scope).
	Scope int `json:"scope"`
	// TrafficCost is the sum over every transmission of the physical
	// delay of the logical link it crossed — the paper's traffic cost.
	TrafficCost float64 `json:"traffic"`
	// Transmissions counts individual message sends.
	Transmissions int `json:"transmissions"`
	// Duplicates counts messages that arrived at an already-visited
	// peer — the pure waste blind flooding generates.
	Duplicates int `json:"duplicates"`
	// FirstResponse is the time in milliseconds until the source
	// receives the first QueryHit (responses travel the inverse query
	// path), +Inf when no responder was reached. The source responding
	// itself yields 0. A QueryRecord carries it as ResponseMS.
	FirstResponse float64 `json:"-"`
	// Lost counts transmissions the fault plan dropped in transit; the
	// sender paid for them, the delivery never happened.
	Lost int `json:"lost,omitempty"`
	// DeadLetters counts deliveries dropped because the target had
	// crashed (debris adjacency not yet purged).
	DeadLetters int `json:"dead_letters,omitempty"`
	// Arrival maps each reached peer to its arrival time in
	// milliseconds.
	Arrival map[overlay.PeerID]float64 `json:"-"`
	// TraceGUID is the causal-trace query GUID this flood's events
	// carry, 0 while tracing is off — the join key between metrics
	// streams and trace captures.
	TraceGUID uint64 `json:"trace_guid,omitempty"`
}

// QueryRecord is one evaluated query as a -metrics stream line: the
// flood's QueryResult plus the batch, round and source it was measured
// with.
type QueryRecord struct {
	// Label names the measurement batch the query belongs to (the
	// MeasureQueries label, or a caller-chosen tag).
	Label string `json:"label,omitempty"`
	// Round is the optimization step the query was measured after.
	Round int `json:"round"`
	// Index is the query's position within its batch.
	Index  int `json:"index"`
	Source int `json:"source"`
	QueryResult
	// ResponseMS is FirstResponse, or -1 when no responder was reached:
	// JSON cannot carry +Inf.
	ResponseMS float64 `json:"response_ms"`
}

// NewQueryRecord builds the stream record of query index of a batch.
// The record drops r's Arrival map, which the stream does not carry, so
// no arrival map outlives its query.
func NewQueryRecord(label string, round, index int, src overlay.PeerID, r QueryResult) QueryRecord {
	ms := r.FirstResponse
	if math.IsInf(ms, 1) || math.IsNaN(ms) {
		ms = -1
	}
	r.Arrival = nil
	return QueryRecord{Label: label, Round: round, Index: index, Source: int(src), QueryResult: r, ResponseMS: ms}
}

const msPerDur = float64(time.Millisecond)

// delayDur converts a physical cost (milliseconds of delay) to a virtual
// duration.
func delayDur(cost float64) time.Duration {
	return time.Duration(cost * float64(time.Millisecond))
}

// Evaluate propagates one query from src with the given forwarder and
// TTL, and returns the paper's per-query metrics. responders marks the
// peers holding the requested object (may be nil). The propagation is
// timed: each hop takes the physical delay of the link, a peer forwards
// only the first copy it receives (GUID dedup), and later copies count
// as duplicate traffic.
func Evaluate(net *overlay.Network, fwd core.Forwarder, src overlay.PeerID, ttl int, responders map[overlay.PeerID]bool) QueryResult {
	res, _ := evaluate(net, fwd, src, ttl, responders, false)
	return res
}

// Hop records one query transmission for walkthrough rendering.
type Hop struct {
	From, To overlay.PeerID
	Cost     float64
	SentAt   float64 // ms, when the sender forwarded
}

// EvaluateTrace is Evaluate plus the ordered list of transmissions — the
// raw material of the paper's Table 1/Table 2 walkthroughs.
func EvaluateTrace(net *overlay.Network, fwd core.Forwarder, src overlay.PeerID, ttl int, responders map[overlay.PeerID]bool) (QueryResult, []Hop) {
	return evaluate(net, fwd, src, ttl, responders, true)
}

// evaluate runs the flood on a pooled Kernel: all per-query state lives
// on epoch-stamped dense arrays, the event queue is a non-boxing typed
// heap, and forwarding runs in the kernel's reusable scratch. The
// (at, seq) total order makes the pop sequence unique regardless of heap
// implementation, so results are bit-identical to the map-based
// reference evaluator (the differential test pins this).
func evaluate(net *overlay.Network, fwd core.Forwarder, src overlay.PeerID, ttl int, responders map[overlay.PeerID]bool, trace bool) (QueryResult, []Hop) {
	if !net.Alive(src) {
		return QueryResult{FirstResponse: math.Inf(1)}, nil
	}
	k := AcquireKernel()
	defer ReleaseKernel(k)
	k.Begin(net, fwd, trace)
	k.MarkResponders(responders)
	k.Arrive(src, -1, 0)
	first := math.Inf(1)
	if k.IsResponder(src) {
		first = 0
		k.trace(tracer.KindQueryRespond, int32(src), 0, 0)
	}

	if ttl > 0 {
		k.Emit(0, src, k.ForwardOf(src, src, -1, core.NoTree, nil, -1, nil, true), ttl-1)
	}
	// The delivery loop works on the kernel's internals directly — the
	// popped key indexes the payload array and the launch table resolves
	// lazily — instead of materializing a Flight per message as the
	// exported Next does for external drivers.
	for k.queueLen() > 0 {
		key := k.popFlight()
		m := k.pay[key.seq]
		to := overlay.PeerID(m.to)
		firstCopy := !k.Arrived(to)
		if !firstCopy {
			k.Duplicate()
		} else {
			k.Arrive(to, overlay.PeerID(m.from), key.at)
			if k.IsResponder(to) {
				// A QueryHit returns along the inverse query path (the
				// Gnutella response rule): arrival plus the memoized
				// path cost back to the source.
				if rt := k.ArrivalMS(to) + k.ReturnTime(to); rt < first {
					first = rt
					k.trace(tracer.KindQueryRespond, int32(to), 0, rt)
				}
			}
		}
		if m.ttl <= 0 {
			continue
		}
		serving := core.NoTree
		var adj *core.TreeAdj
		var covered *core.CoveredSet
		if m.launch >= 0 {
			l := &k.launches[m.launch]
			serving, adj, covered = l.tree, l.adj, l.covered
		}
		if !firstCopy && (serving == core.NoTree || k.Served(to, serving)) {
			// A duplicate forwards nothing new: blind relays only first
			// copies, and a continuation of an already-served tag would
			// be dropped by Emit's dedup — so skip the forwarder.
			continue
		}
		k.Emit(key.at, to, k.ForwardOf(src, to, overlay.PeerID(m.from), serving, adj, m.toPos, covered, firstCopy), int(m.ttl)-1)
	}

	k.ObserveFlood()
	firstV := first
	if math.IsInf(firstV, 1) {
		firstV = -1 // JSON exports cannot carry +Inf
	}
	k.trace(tracer.KindQueryEnd, int32(k.scope), int32(k.transmissions), firstV)
	res := k.Result(first)
	var hops []Hop
	if trace {
		hops = append(hops, k.hops...) // copy out: the kernel is pooled
	}
	return res, hops
}
