// Package obs is the engine's runtime observability core: atomic
// counters, gauges, log₂-bucketed histograms and span timers, owned by a
// Registry that is compiled in everywhere but disabled by default.
//
// Design constraints, in priority order:
//
//  1. Zero overhead while disabled. Every recording operation is a
//     single predictable-branch check of the registry's enable flag and
//     nothing else — no allocation, no atomic write, no map probe. The
//     engine hot paths (rebuild workers, the flood kernel, the event
//     loop) call these unconditionally.
//  2. No perturbation. Instrumentation never touches an RNG stream,
//     never reorders events, and never feeds a value back into the
//     simulation — enabling the registry cannot change any simulated
//     result bit for bit (pinned by tests in internal/core).
//  3. Alloc-free while enabled. All state is fixed-size atomics; the
//     only allocations happen at metric construction and snapshot time.
//
// Metric names follow the scheme `ace.<pkg>.<name>` (dots as
// separators, lowercase, e.g. `ace.core.rebuild.peers`). Metrics
// register themselves in the Default registry at construction, once per
// name: instruments are package-level, never per instance, since the
// registry keeps every instrument for the life of the process.
//
// The enable switch is process-wide: Enable()/Disable(), or the
// ACE_OBS=1 environment variable at startup. Sinks on top of the core:
// Stream (JSONL per-round/per-query records, stream.go) and Handler
// (HTTP snapshot endpoint, handler.go).
package obs

import (
	"math"
	"math/bits"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry owns the enable flag and the set of registered instruments.
type Registry struct {
	enabled atomic.Bool
	mu      sync.Mutex
	metrics []instrument
}

// instrument is the internal metric interface: every instrument knows
// its name and renders a point-in-time snapshot.
type instrument interface {
	Name() string
	snapshot() Snapshot
}

var defaultRegistry = &Registry{}

func init() {
	if os.Getenv("ACE_OBS") == "1" {
		defaultRegistry.Enable()
	}
}

// Default returns the process-wide registry every package-level metric
// registers in.
func Default() *Registry { return defaultRegistry }

// Enabled reports whether the default registry is recording.
func Enabled() bool { return defaultRegistry.enabled.Load() }

// Enable turns recording on for the default registry.
func Enable() { defaultRegistry.Enable() }

// Disable turns recording off for the default registry.
func Disable() { defaultRegistry.Disable() }

// Enable turns recording on.
func (r *Registry) Enable() { r.enabled.Store(true) }

// Disable turns recording off. Accumulated values are kept.
func (r *Registry) Disable() { r.enabled.Store(false) }

// Enabled reports whether the registry is recording.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

func (r *Registry) register(m instrument) {
	r.mu.Lock()
	r.metrics = append(r.metrics, m)
	r.mu.Unlock()
}

// Snapshot renders every registered instrument, sorted by name for
// deterministic output.
func (r *Registry) Snapshot() []Snapshot {
	r.mu.Lock()
	metrics := slices.Clone(r.metrics)
	r.mu.Unlock()
	out := make([]Snapshot, len(metrics))
	for i, m := range metrics {
		out[i] = m.snapshot()
	}
	slices.SortFunc(out, func(a, b Snapshot) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Snapshot is one metric value at a point in time.
type Snapshot struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "counter" | "gauge" | "histogram" | "span"
	// Value carries the counter total or the gauge level.
	Value int64 `json:"value,omitempty"`
	// Count/Sum/Buckets carry histogram and span state. Buckets[i]
	// counts observations whose value has bit length i (bucket 0 holds
	// exact zeros; bucket i ≥ 1 covers [2^(i-1), 2^i)); trailing empty
	// buckets are trimmed. Spans observe nanoseconds.
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Mean returns the histogram/span mean observation (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]) of a histogram/span
// snapshot from its log₂ buckets: it walks the cumulative counts to the
// bucket holding the ⌈q·Count⌉-th observation and interpolates linearly
// across that bucket's [low, high] value range. Resolution is the
// bucket width (a factor of two), exact when the rank lands on a bucket
// boundary. Returns 0 for empty snapshots.
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * float64(s.Count)
	cum := 0.0
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if next >= rank {
			low, high := BucketBounds(i)
			if rank <= cum {
				// The rank sits on this bucket's lower boundary.
				return float64(low)
			}
			frac := (rank - cum) / float64(b)
			return float64(low) + frac*(float64(high)-float64(low))
		}
		cum = next
	}
	// Float round-off pushed the rank past the trimmed buckets: report
	// the top of the last populated bucket.
	_, high := BucketBounds(len(s.Buckets) - 1)
	return float64(high)
}

// Counter is a monotonically increasing count. The zero Counter is
// unusable; construct with NewCounter.
type Counter struct {
	name string
	v    atomic.Uint64
}

// NewCounter registers a gated counter in the default registry: Add is a
// no-op while the registry is disabled.
func NewCounter(name string) *Counter {
	c := &Counter{name: name}
	defaultRegistry.register(c)
	return c
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if defaultRegistry.enabled.Load() {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) snapshot() Snapshot {
	return Snapshot{Name: c.name, Kind: "counter", Value: int64(c.v.Load())}
}

// Gauge is a level that moves both ways (queue depths, cache sizes).
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge registers a gated gauge in the default registry.
func NewGauge(name string) *Gauge {
	g := &Gauge{name: name}
	defaultRegistry.register(g)
	return g
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Set stores the current level.
func (g *Gauge) Set(v int64) {
	if defaultRegistry.enabled.Load() {
		g.v.Store(v)
	}
}

// Add moves the level by d.
func (g *Gauge) Add(d int64) {
	if defaultRegistry.enabled.Load() {
		g.v.Add(d)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) snapshot() Snapshot {
	return Snapshot{Name: g.name, Kind: "gauge", Value: g.v.Load()}
}

// histBuckets is the log₂ bucket count: bucket i holds observations of
// bit length i, so 0 lands in bucket 0, 1 in bucket 1, and MaxUint64 in
// bucket 64.
const histBuckets = 65

// Histogram is a log₂-bucketed distribution of uint64 observations.
// Recording is three atomic adds on fixed-size state — no allocation,
// no lock — and a no-op while the registry is disabled.
type Histogram struct {
	name    string
	kind    string
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram registers a gated histogram in the default registry.
func NewHistogram(name string) *Histogram {
	h := &Histogram{name: name, kind: "histogram"}
	defaultRegistry.register(h)
	return h
}

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if !defaultRegistry.enabled.Load() {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

func (h *Histogram) snapshot() Snapshot {
	s := Snapshot{Name: h.name, Kind: h.kind, Count: h.count.Load(), Sum: h.sum.Load()}
	last := -1
	var buckets [histBuckets]uint64
	for i := range h.buckets {
		if buckets[i] = h.buckets[i].Load(); buckets[i] > 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]uint64(nil), buckets[:last+1]...)
	}
	return s
}

// Span times a region of code into a nanosecond histogram. Start always
// reads the clock — spans are the single source of truth for engine
// phase timings (core.StepReport), which must stay populated with the
// registry disabled, and the two clock reads are exactly what the inline
// bookkeeping they replaced paid — while the histogram recording is
// gated like every other instrument.
type Span struct {
	h Histogram
}

// NewSpan registers a span timer in the default registry.
func NewSpan(name string) *Span {
	s := &Span{h: Histogram{name: name, kind: "span"}}
	defaultRegistry.register(s)
	return s
}

// Name returns the metric name.
func (s *Span) Name() string { return s.h.name }

// Count returns the number of completed timings.
func (s *Span) Count() uint64 { return s.h.Count() }

// TotalNanos returns the summed duration of completed timings.
func (s *Span) TotalNanos() uint64 { return s.h.Sum() }

func (s *Span) snapshot() Snapshot { return s.h.snapshot() }

// SpanMark is one in-flight timing; End it exactly once.
type SpanMark struct {
	s  *Span
	t0 time.Time
}

// Start begins a timing.
func (s *Span) Start() SpanMark { return SpanMark{s: s, t0: time.Now()} }

// End completes the timing and returns the elapsed nanoseconds. The
// elapsed value is always returned; it is recorded into the span's
// histogram only while the registry is enabled.
func (m SpanMark) End() int64 {
	d := int64(time.Since(m.t0))
	if defaultRegistry.enabled.Load() {
		v := uint64(0)
		if d > 0 {
			v = uint64(d)
		}
		m.s.h.observe(v)
	}
	return d
}

// BucketBounds renders the [low, high] value range of log₂ bucket i, for
// report rendering. Bucket 0 is the exact-zero bucket.
func BucketBounds(i int) (low, high uint64) {
	switch {
	case i <= 0:
		return 0, 0
	case i >= 64:
		return 1 << 63, math.MaxUint64
	default:
		return 1 << (i - 1), 1<<i - 1
	}
}
