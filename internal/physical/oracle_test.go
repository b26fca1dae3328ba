package physical

import (
	"math"
	"sync"
	"testing"

	"ace/internal/fault"
	"ace/internal/graph"
	"ace/internal/obs"
	"ace/internal/sim"
	"ace/internal/topology"
)

func lineGraph() *graph.Graph {
	g := graph.New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(3, 4, 4)
	return g
}

func TestDelayBasics(t *testing.T) {
	o := NewOracle(lineGraph())
	if d := o.Delay(0, 4); d != 10 {
		t.Fatalf("Delay(0,4) = %v, want 10", d)
	}
	if d := o.Delay(4, 0); d != 10 {
		t.Fatalf("Delay symmetric: got %v", d)
	}
	if d := o.Delay(2, 2); d != 0 {
		t.Fatalf("Delay(self) = %v, want 0", d)
	}
}

func TestDelayUsesReverseCache(t *testing.T) {
	o := NewOracle(lineGraph())
	o.Delay(0, 4) // caches vector for 0
	o.Delay(4, 0) // should hit 0's vector, not run Dijkstra from 4
	st := o.Stats()
	if st.Dijkstras != 1 {
		t.Fatalf("Dijkstras = %d, want 1 (reverse lookup should hit cache)", st.Dijkstras)
	}
	if st.Queries != 2 {
		t.Fatalf("Queries = %d, want 2", st.Queries)
	}
	// 2 queries, 1 Dijkstra: half the lookups were answered from cache.
	if hr := st.HitRatio(); hr != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", hr)
	}
	var zero Stats
	if zero.HitRatio() != 0 {
		t.Fatalf("HitRatio before any query = %v, want 0", zero.HitRatio())
	}
}

func TestDelayDisconnected(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1)
	o := NewOracle(g)
	if d := o.Delay(0, 2); !math.IsInf(d, 1) {
		t.Fatalf("Delay to disconnected node = %v, want +Inf", d)
	}
}

func TestDelayPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewOracle(lineGraph()).Delay(0, 99)
}

func TestWarmAndConcurrency(t *testing.T) {
	rng := sim.NewRNG(21)
	phys, err := topology.GenerateBA(rng, topology.DefaultBASpec(400))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(phys.Graph)
	srcs := make([]int, 100)
	for i := range srcs {
		srcs[i] = i
	}
	o.Warm(srcs, 8)
	if o.CacheSize() != 100 {
		t.Fatalf("Warm cached %d vectors, want 100", o.CacheSize())
	}
	// Concurrent queries agree with a fresh oracle's serial answers.
	ref := NewOracle(phys.Graph)
	var wg sync.WaitGroup
	errs := make(chan string, 100)
	for i := 0; i < 100; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			u, v := i, (i*37+11)%400
			if got, want := o.Delay(u, v), ref.Delay(u, v); got != want {
				errs <- "concurrent Delay mismatch"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestWarmEmpty(t *testing.T) {
	o := NewOracle(lineGraph())
	o.Warm(nil, 4) // must not hang or panic
	if o.CacheSize() != 0 {
		t.Fatal("Warm(nil) should cache nothing")
	}
}

func TestPath(t *testing.T) {
	o := NewOracle(lineGraph())
	p := o.Path(0, 3)
	want := []int{0, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("Path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("Path = %v, want %v", p, want)
		}
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	rng := sim.NewRNG(23)
	phys, err := topology.GenerateBA(rng, topology.DefaultBASpec(200))
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(phys.Graph)
	for trial := 0; trial < 500; trial++ {
		a, b, c := rng.Intn(200), rng.Intn(200), rng.Intn(200)
		ab, bc, ac := o.Delay(a, b), o.Delay(b, c), o.Delay(a, c)
		if ac > ab+bc+1e-3 {
			t.Fatalf("triangle inequality violated: d(%d,%d)=%v > %v+%v", a, c, ac, ab, bc)
		}
	}
}

// TestVectorsMatchDijkstra: every vector the oracle fills — by several
// Warm workers sharing the frozen graph and the scratch pool, and
// lazily on a cold oracle's first Vector call — is float32 of
// graph.Dijkstra's distances, bit for bit.
func TestVectorsMatchDijkstra(t *testing.T) {
	phys, err := topology.GenerateBA(sim.NewRNG(25), topology.DefaultBASpec(500))
	if err != nil {
		t.Fatal(err)
	}
	g := phys.Graph
	want := make([][]float32, g.N())
	srcs := make([]int, g.N())
	for src := range want {
		srcs[src] = src
		dist, _ := graph.Dijkstra(g, src)
		want[src] = make([]float32, len(dist))
		for v, d := range dist {
			want[src][v] = float32(d)
		}
	}
	warm := NewOracle(g)
	warm.Warm(srcs, 4)
	cold := NewOracle(g)
	for src := range want {
		for _, got := range [][]float32{warm.Vector(src), cold.Vector(src)} {
			for v := range got {
				if math.Float32bits(got[v]) != math.Float32bits(want[src][v]) {
					t.Fatalf("vector %d[%d] = %v, Dijkstra gives %v", src, v, got[v], want[src][v])
				}
			}
		}
	}
}

// TestConcurrentFillsPublishOnce: goroutines fill overlapping sources on
// a cold oracle, so several race for each slot. Each source counts one
// fill, the cache holds one vector per distinct source, and every caller
// gets the same bits as a serially filled oracle. CI runs it under -race.
func TestConcurrentFillsPublishOnce(t *testing.T) {
	phys, err := topology.GenerateBA(sim.NewRNG(27), topology.DefaultBASpec(300))
	if err != nil {
		t.Fatal(err)
	}
	const sources, workers = 40, 8
	ref := NewOracle(phys.Graph)
	o := NewOracle(phys.Graph)
	got := make([][][]float32, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every worker fills every source, starting at a different one.
			for i := range sources {
				got[w] = append(got[w], o.Vector((i+w*5)%sources))
			}
		}()
	}
	wg.Wait()
	if n := o.Stats().Dijkstras; n != sources {
		t.Fatalf("%d fills counted for %d distinct sources", n, sources)
	}
	if n := o.CacheSize(); n != sources {
		t.Fatalf("CacheSize = %d, want %d", n, sources)
	}
	for w := range workers {
		for i, vec := range got[w] {
			want := ref.Vector((i + w*5) % sources)
			for v := range want {
				if math.Float32bits(vec[v]) != math.Float32bits(want[v]) {
					t.Fatalf("worker %d source %d: [%d] = %v, want %v", w, (i+w*5)%sources, v, vec[v], want[v])
				}
			}
		}
	}
}

// TestInstancesRegisterNoInstruments: oracles and fault injectors keep
// their activity counts on the instance and share package-level
// counters, so building many of them grows the process-wide registry
// by nothing.
func TestInstancesRegisterNoInstruments(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	before := len(obs.Default().Snapshot())
	for i := 0; i < 1000; i++ {
		NewOracle(g).Delay(0, 3)
		in, err := fault.NewInjector(fault.Plan{Seed: int64(i + 1), LossRate: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		in.DropMessage(0, 0, 1, 0)
	}
	if after := len(obs.Default().Snapshot()); after != before {
		t.Fatalf("registry grew from %d to %d instruments", before, after)
	}
}
