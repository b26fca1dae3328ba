// Package physical turns a generated physical topology into the delay
// metric ACE measures in Phase 1: the cost between two peers is the delay
// of the shortest physical path between their attachment nodes.
//
// The oracle runs one single-source shortest-path sweep per queried
// source node and caches the resulting distance vector (float32, ~4 bytes
// per physical node), optionally bounded. The sweep is graph.CSR.SSSP, a
// bucketed kernel over a CSR copy of the physical graph frozen in
// NewOracle; its float64 distances are bit-identical to graph.Dijkstra's,
// so every cached vector is too. Static experiments query the same few
// thousand attachment points repeatedly, so the cache converges to one
// vector per live peer.
package physical

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ace/internal/graph"
	"ace/internal/obs"
	"ace/internal/par"
)

// Oracle answers physical-delay queries between physical node indices.
// It is safe for concurrent use: lookups take only the read lock and the
// activity counters are atomic, so parallel readers (the optimizer's
// rebuild workers) never serialize on the mutex once the cache is warm.
type Oracle struct {
	g   *graph.Graph
	csr *graph.CSR // g frozen for the vector fills
	cap int        // max cached vectors; 0 = unbounded

	mu    sync.RWMutex
	cache map[int][]float32
	order []int // insertion order for FIFO eviction

	// flat mirrors cache as lock-free per-source slots when the cache is
	// unbounded (no eviction ever invalidates an entry), so the query
	// hot loops read a vector with one atomic load instead of taking the
	// read lock per delay lookup.
	flat []atomic.Pointer[[]float32]

	// scratch pools SSSPScratch instances across concurrent vector
	// fills: a fill's float64 working distances and bucket ring are
	// reused, leaving only the cached float32 vector as a per-source
	// allocation.
	scratch sync.Pool

	// Activity counters live in the obs registry (ace.physical.*) as
	// always-on per-instance counters: an unconditional atomic add costs
	// exactly what the former bespoke atomics did, Stats() keeps its seed
	// semantics with observability off, and Snapshot aggregates across
	// oracle instances under the shared names.
	queries   *obs.Counter
	dijkstras *obs.Counter
	evictions *obs.Counter
}

// Stats is a snapshot of oracle activity counters, for overhead reporting
// and tests. Dijkstras counts distance-vector fills, one shortest-path
// sweep each.
type Stats struct {
	Queries   uint64
	Dijkstras uint64
	Evictions uint64
}

// HitRatio reports the fraction of delay queries answered from a cached
// vector (1 − Dijkstras/Queries), or 0 before any query.
func (s Stats) HitRatio() float64 {
	if s.Queries == 0 {
		return 0
	}
	return 1 - float64(s.Dijkstras)/float64(s.Queries)
}

// NewOracle returns an oracle over the physical graph g. cacheCap bounds
// the number of cached source vectors (0 means unbounded). The vector
// fills run over a copy of g frozen here, so g must not change afterwards.
func NewOracle(g *graph.Graph, cacheCap int) *Oracle {
	o := &Oracle{
		g: g, csr: graph.NewCSR(g), cap: cacheCap, cache: make(map[int][]float32),
		queries:   obs.NewAlwaysCounter("ace.physical.queries"),
		dijkstras: obs.NewAlwaysCounter("ace.physical.dijkstras"),
		evictions: obs.NewAlwaysCounter("ace.physical.evictions"),
	}
	if cacheCap == 0 {
		o.flat = make([]atomic.Pointer[[]float32], g.N())
	}
	return o
}

// N reports the number of physical nodes.
func (o *Oracle) N() int { return o.g.N() }

// Delay returns the shortest-path delay between physical nodes u and v,
// or +Inf when disconnected. It panics on out-of-range nodes (a
// programming error, since attachment points come from the same graph).
func (o *Oracle) Delay(u, v int) float64 {
	if u < 0 || v < 0 || u >= o.g.N() || v >= o.g.N() {
		panic(fmt.Sprintf("physical: delay query (%d,%d) out of range [0,%d)", u, v, o.g.N()))
	}
	if u == v {
		return 0
	}
	o.queries.Inc()
	// The lock-free mirror answers with the same direction preference as
	// the locked path (u's vector, else v's, else compute u's), so the
	// returned values are identical bit for bit either way.
	if o.flat != nil {
		if p := o.flat[u].Load(); p != nil {
			return float64((*p)[v])
		}
		if p := o.flat[v].Load(); p != nil {
			return float64((*p)[u])
		}
		return float64(o.vector(u)[v])
	}
	o.mu.RLock()
	vecU, okU := o.cache[u]
	var vecV []float32
	okV := false
	if !okU {
		vecV, okV = o.cache[v]
	}
	o.mu.RUnlock()
	if okU {
		return float64(vecU[v])
	}
	if okV {
		return float64(vecV[u])
	}
	vec := o.vector(u)
	return float64(vec[v])
}

// vector returns the cached distance vector for src, computing and
// inserting it if absent.
func (o *Oracle) vector(src int) []float32 {
	s, _ := o.scratch.Get().(*graph.SSSPScratch)
	if s == nil {
		s = new(graph.SSSPScratch)
	}
	dist := o.csr.SSSP(s, src)
	vec := make([]float32, len(dist))
	for i, d := range dist {
		vec[i] = float32(d)
	}
	o.scratch.Put(s)
	o.mu.Lock()
	defer o.mu.Unlock()
	if existing, ok := o.cache[src]; ok {
		return existing // another goroutine raced us; keep theirs
	}
	o.dijkstras.Inc()
	if o.cap > 0 && len(o.cache) >= o.cap {
		victim := o.order[0]
		o.order = o.order[1:]
		delete(o.cache, victim)
		o.evictions.Inc()
	}
	o.cache[src] = vec
	o.order = append(o.order, src)
	if o.flat != nil {
		o.flat[src].Store(&vec)
	}
	return vec
}

// Warm precomputes distance vectors for the given sources on up to
// workers goroutines (<=0 means GOMAXPROCS), the caller's among them.
// It is an optimization only; Delay computes lazily regardless.
func (o *Oracle) Warm(sources []int, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	par.Run(workers, len(sources), func(_, i int) {
		src := sources[i]
		o.mu.RLock()
		_, ok := o.cache[src]
		o.mu.RUnlock()
		if !ok {
			o.vector(src)
		}
	})
}

// Vector returns the full distance vector from src (computing and
// caching it if absent). The returned slice is shared with the cache and
// MUST be treated as read-only; it lets hot loops (dense MST over a
// closure) index distances directly instead of paying the lock per pair.
func (o *Oracle) Vector(src int) []float32 {
	if src < 0 || src >= o.g.N() {
		panic(fmt.Sprintf("physical: vector source %d out of range [0,%d)", src, o.g.N()))
	}
	if o.flat != nil {
		if p := o.flat[src].Load(); p != nil {
			return *p
		}
		return o.vector(src)
	}
	o.mu.RLock()
	vec, ok := o.cache[src]
	o.mu.RUnlock()
	if ok {
		return vec
	}
	return o.vector(src)
}

// VectorCached returns the distance vector for src only if it is already
// cached, never computing one. When ok, indexing the vector at v yields
// exactly what Delay(src, v) would return — Delay prefers the source's
// vector whenever it exists — so hot loops can batch one lookup per
// source without perturbing values bit for bit.
func (o *Oracle) VectorCached(src int) ([]float32, bool) {
	if src < 0 || src >= o.g.N() {
		return nil, false
	}
	if o.flat != nil {
		if p := o.flat[src].Load(); p != nil {
			return *p, true
		}
		return nil, false
	}
	o.mu.RLock()
	vec, ok := o.cache[src]
	o.mu.RUnlock()
	return vec, ok
}

// Path returns the physical node sequence of the shortest path u→v,
// recomputed on demand (used only for inspection and visualization).
func (o *Oracle) Path(u, v int) []int {
	_, parent := graph.Dijkstra(o.g, u)
	return graph.PathTo(parent, u, v)
}

// Stats returns a snapshot of activity counters.
func (o *Oracle) Stats() Stats {
	return Stats{
		Queries:   o.queries.Value(),
		Dijkstras: o.dijkstras.Value(),
		Evictions: o.evictions.Value(),
	}
}

// CacheSize reports the number of cached source vectors.
func (o *Oracle) CacheSize() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.cache)
}
