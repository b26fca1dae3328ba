package physical

import (
	"testing"

	"ace/internal/graph"
	"ace/internal/sim"
	"ace/internal/topology"
)

// benchGraph is a 2048-node ring with chords — cheap to build, nontrivial
// shortest paths.
func benchGraph() *graph.Graph {
	const n = 2048
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n, 1)
		g.AddEdge(i, (i+37)%n, 5)
	}
	return g
}

// BenchmarkDelayWarmSerial is the single-goroutine baseline for warmed
// cache hits.
func BenchmarkDelayWarmSerial(b *testing.B) {
	o := NewOracle(benchGraph())
	sources := make([]int, 512)
	for i := range sources {
		sources[i] = i * 4
	}
	o.Warm(sources, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Delay(sources[i%512], sources[(i*7+3)%512])
	}
}

// BenchmarkDelayWarmParallel drives concurrent Delay lookups against a
// warmed cache — the rebuild workers' access pattern. A lookup is an
// atomic load of the source's slot plus an atomic counter add, so
// throughput should scale with readers.
func BenchmarkDelayWarmParallel(b *testing.B) {
	o := NewOracle(benchGraph())
	sources := make([]int, 512)
	for i := range sources {
		sources[i] = i * 4
	}
	o.Warm(sources, 0)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			o.Delay(sources[i%512], sources[(i*7+3)%512])
			i++
		}
	})
	if st := o.Stats(); st.Queries == 0 {
		b.Fatal("stats counters not advancing")
	}
}

// BenchmarkOracleFill fills every distance vector of a 4k-node BA
// topology (DefaultBASpec, NewSystem's seed-1 "phys" stream) through
// Oracle.Warm with GOMAXPROCS workers, as a system's set-up does, and
// reports the cost per vector. Each iteration starts from a fresh oracle.
func BenchmarkOracleFill(b *testing.B) {
	phys, err := topology.GenerateBA(sim.NewRNG(1).Derive("phys"), topology.DefaultBASpec(4000))
	if err != nil {
		b.Fatal(err)
	}
	sources := make([]int, phys.Graph.N())
	for i := range sources {
		sources[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := NewOracle(phys.Graph)
		o.Warm(sources, 0)
		if o.CacheSize() != len(sources) {
			b.Fatalf("filled %d vectors, want %d", o.CacheSize(), len(sources))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sources)), "ns/vector")
}
