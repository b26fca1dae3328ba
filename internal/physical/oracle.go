// Package physical turns a generated physical topology into the delay
// metric ACE measures in Phase 1: the cost between two peers is the delay
// of the shortest physical path between their attachment nodes.
//
// The oracle runs one single-source shortest-path sweep per queried
// source node and caches the resulting distance vector (float32, ~4 bytes
// per physical node) for the oracle's lifetime. The sweep is
// graph.CSR.SSSP, a bucketed kernel over a CSR copy of the physical graph
// frozen in NewOracle; its float64 distances are bit-identical to
// graph.Dijkstra's, so every cached vector is too. Static experiments
// query the same few thousand attachment points repeatedly, so the cache
// converges to one vector per live peer.
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
// It is safe for concurrent use and takes no lock: each source node has
// one slot, published once with CompareAndSwap and never replaced, so
// the query hot loops and the optimizer's rebuild workers read a vector
// with one atomic load.
type Oracle struct {
	g    *graph.Graph
	csr  *graph.CSR // g frozen for the vector fills
	flat []atomic.Pointer[[]float32]

	// scratch pools SSSPScratch instances across concurrent vector
	// fills: a fill's float64 working distances and bucket ring are
	// reused, leaving only the cached float32 vector as a per-source
	// allocation.
	scratch sync.Pool

	// Activity counts behind Stats and CacheSize, kept with
	// observability off; the gated ace.physical.* counters sum them over
	// every oracle.
	queries   atomic.Uint64
	dijkstras atomic.Uint64
}

// Process-wide totals over every oracle, gated like all obs instruments.
var (
	cQueries   = obs.NewCounter("ace.physical.queries")
	cDijkstras = obs.NewCounter("ace.physical.dijkstras")
)

// Stats is a snapshot of oracle activity counters, for overhead reporting
// and tests. Dijkstras counts distance-vector fills, one shortest-path
// sweep each.
type Stats struct {
	Queries   uint64
	Dijkstras uint64
}

// HitRatio reports the fraction of delay queries answered from a cached
// vector (1 − Dijkstras/Queries), or 0 before any query.
func (s Stats) HitRatio() float64 {
	if s.Queries == 0 {
		return 0
	}
	return 1 - float64(s.Dijkstras)/float64(s.Queries)
}

// NewOracle returns an oracle over the physical graph g. The vector
// fills run over a copy of g frozen here, so g must not change
// afterwards.
func NewOracle(g *graph.Graph) *Oracle {
	return &Oracle{g: g, csr: graph.NewCSR(g), flat: make([]atomic.Pointer[[]float32], g.N())}
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
	o.queries.Add(1)
	cQueries.Inc()
	if p := o.flat[u].Load(); p != nil {
		return float64((*p)[v])
	}
	if p := o.flat[v].Load(); p != nil {
		return float64((*p)[u])
	}
	return float64(o.vector(u)[v])
}

// vector returns the cached distance vector for src, computing and
// publishing it if absent. Racing fills of one source each compute a
// vector, but only the first CompareAndSwap publishes; the losers
// return the winner's vector, and only the winner counts a fill.
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
	if !o.flat[src].CompareAndSwap(nil, &vec) {
		return *o.flat[src].Load()
	}
	o.dijkstras.Add(1)
	cDijkstras.Inc()
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
		if src := sources[i]; o.flat[src].Load() == nil {
			o.vector(src)
		}
	})
}

// Vector returns the full distance vector from src (computing and
// caching it if absent). The returned slice is shared with the cache and
// MUST be treated as read-only; it lets hot loops (dense MST over a
// closure) index distances directly instead of paying a lookup per pair.
func (o *Oracle) Vector(src int) []float32 {
	if src < 0 || src >= o.g.N() {
		panic(fmt.Sprintf("physical: vector source %d out of range [0,%d)", src, o.g.N()))
	}
	if p := o.flat[src].Load(); p != nil {
		return *p
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
	if p := o.flat[src].Load(); p != nil {
		return *p, true
	}
	return nil, false
}

// Path returns the physical node sequence of the shortest path u→v,
// recomputed on demand (used only for inspection and visualization).
func (o *Oracle) Path(u, v int) []int {
	_, parent := graph.Dijkstra(o.g, u)
	return graph.PathTo(parent, u, v)
}

// Stats returns a snapshot of activity counters.
func (o *Oracle) Stats() Stats {
	return Stats{Queries: o.queries.Load(), Dijkstras: o.dijkstras.Load()}
}

// CacheSize reports the number of cached source vectors: every counted
// fill published one, and none is ever evicted.
func (o *Oracle) CacheSize() int { return int(o.dijkstras.Load()) }
