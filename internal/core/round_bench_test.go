package core

import (
	"fmt"
	"os"
	"testing"

	"ace/internal/obs/tracer"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// benchSystem is one persistent benchmark fixture: an overlay plus an
// optimizer in steady state. It is cached across the benchmark framework's
// calibration reruns so the BA generation, oracle warm-up (one vector fill
// per attachment point) and priming rebuild run once per configuration.
type benchSystem struct {
	net   *overlay.Network
	opt   *Optimizer
	churn *sim.RNG
	full  bool // every rebuild takes the full path (the `full` rows)
}

var benchSystems = map[string]*benchSystem{}

// round runs one Round; on a full fixture it first clears synced, the
// journal desync that sends the rebuild down the full path.
func (s *benchSystem) round(rng *sim.RNG) StepReport {
	if s.full {
		s.opt.synced = false
	}
	return s.opt.Round(rng)
}

// rebuildTrees is round's Phases 1–2 alone.
func (s *benchSystem) rebuildTrees() {
	if s.full {
		s.opt.synced = false
	}
	s.opt.RebuildTrees()
}

func getBenchSystem(b *testing.B, nPeers, h int, full bool) *benchSystem {
	b.Helper()
	key := fmt.Sprintf("%d/%d/%v", nPeers, h, full)
	if s, ok := benchSystems[key]; ok {
		return s
	}
	s := newBenchSystem(b, nPeers, h, full)
	benchSystems[key] = s
	return s
}

func newBenchSystem(b *testing.B, nPeers, h int, full bool) *benchSystem {
	b.Helper()
	rng := sim.NewRNG(int64(nPeers) + 31)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(nPeers))
	if err != nil {
		b.Fatal(err)
	}
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), nPeers, nPeers)
	if err != nil {
		b.Fatal(err)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		b.Fatal(err)
	}
	if err := overlay.GenerateRandom(rng.Derive("gen"), net, 6); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(h)
	// Client connection ceiling at 4x the generated average degree, the
	// ace.NewSystem scaling: without it, churned long runs pump degree
	// into hubs whose quadratic closure rebuilds dominate both engines.
	cfg.MaxDegree = 24
	opt, err := NewOptimizer(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	opt.RebuildTrees() // prime: fills the oracle cache and the state map
	return &benchSystem{net: net, opt: opt, churn: rng.Derive("churn"), full: full}
}

// getRoundBenchSystem is the BenchmarkRoundChurn fixture: a system driven
// through enough full rounds that Phase 3's rewiring rate and the degree
// profile reach their dynamic steady state, so the benchmark measures the
// regime a long-lived overlay actually runs in, not the violent first
// rounds of convergence (where every peer rewires and any engine
// rightfully rebuilds everyone).
func getRoundBenchSystem(b *testing.B, full bool) *benchSystem {
	b.Helper()
	key := fmt.Sprintf("round/%v", full)
	if s, ok := benchSystems[key]; ok {
		return s
	}
	s := newBenchSystem(b, 1000, 1, full)
	rng := sim.NewRNG(7)
	for i := 0; i < 200; i++ {
		s.churnPeers(2)
		s.round(rng)
	}
	benchSystems[key] = s
	return s
}

// churnPeers bounces k random peers (leave then immediately rejoin), the
// membership-churn workload between exchange cycles.
func (s *benchSystem) churnPeers(k int) {
	for j := 0; j < k; j++ {
		p := overlay.PeerID(s.churn.Intn(s.net.N()))
		if s.net.Alive(p) {
			s.net.Leave(p)
		}
		s.net.Join(s.churn, p, 6)
	}
}

// churnPeersUniform is churnPeers with JoinUniform rejoins: at 100k+
// peers Join's full-population bootstrap shuffle would cost more than
// the round being measured.
func (s *benchSystem) churnPeersUniform(k int) {
	for j := 0; j < k; j++ {
		p := overlay.PeerID(s.churn.Intn(s.net.N()))
		if s.net.Alive(p) {
			s.net.Leave(p)
		}
		s.net.JoinUniform(s.churn, p, 6)
	}
}

// getShardBenchSystem is the sharded-round fixture: nPeers attached to a
// physical topology of physN nodes (shared attachment points past 10k
// peers — the oracle's all-pairs cache is what bounds feasible physical
// size, not the overlay), driven to dynamic steady state like the
// n=1000 round fixture but with fewer priming rounds at the larger
// scales where each costs more.
func getShardBenchSystem(b *testing.B, nPeers, physN, shards, prime int) *benchSystem {
	b.Helper()
	key := fmt.Sprintf("shard/%d/%d/%d", nPeers, physN, shards)
	if s, ok := benchSystems[key]; ok {
		return s
	}
	rng := sim.NewRNG(int64(nPeers) + 31)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(physN))
	if err != nil {
		b.Fatal(err)
	}
	attach := make([]int, nPeers)
	arng := rng.Derive("attach")
	for i := range attach {
		attach[i] = arng.Intn(physN)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		b.Fatal(err)
	}
	if err := overlay.GenerateRandom(rng.Derive("gen"), net, 6); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.MaxDegree = 24
	cfg.Shards = shards
	opt, err := NewOptimizer(net, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := &benchSystem{net: net, opt: opt, churn: rng.Derive("churn")}
	prng := sim.NewRNG(7)
	for i := 0; i < prime; i++ {
		s.churnPeersUniform(2)
		s.opt.Round(prng)
	}
	benchSystems[key] = s
	return s
}

func benchmarkRebuild(b *testing.B, nPeers, h, churn int, full bool) {
	s := getBenchSystem(b, nPeers, h, full)
	before := s.opt.RebuildStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.churnPeers(churn)
		b.StartTimer()
		s.rebuildTrees()
	}
	b.StopTimer()
	st := s.opt.RebuildStats()
	b.ReportMetric(float64(st.PeersRebuilt-before.PeersRebuilt)/float64(b.N), "peers-rebuilt/op")
	b.ReportMetric(float64(st.Full-before.Full)/float64(b.N), "full-rebuilds/op")
}

// BenchmarkRebuildTrees measures one Phase 1–2 exchange cycle under
// membership churn, incremental engine vs full rebuild, at two population
// scales. Light churn is the steady-state regime (a couple of peers bounce
// per cycle); heavy churn bounces 1% of the population, near the regime
// where the dirty region stops paying off.
func BenchmarkRebuildTrees(b *testing.B) {
	cases := []struct {
		name  string
		n, h  int
		churn int
	}{
		{"n1000_light", 1000, 1, 2},
		{"n1000_heavy", 1000, 1, 10},
		// At h=2 the old BFS-expanded dirty region always blew past the
		// fallback threshold and this row showed parity with full; the
		// reverse closure index resolves the exact affected set, so the
		// incremental path fires here too.
		{"n1000_h2_light", 1000, 2, 2},
		{"n10000_light", 10000, 1, 2},
		{"n10000_heavy", 10000, 1, 100},
	}
	for _, tc := range cases {
		b.Run(tc.name+"/incremental", func(b *testing.B) {
			benchmarkRebuild(b, tc.n, tc.h, tc.churn, false)
		})
		b.Run(tc.name+"/full", func(b *testing.B) {
			benchmarkRebuild(b, tc.n, tc.h, tc.churn, true)
		})
	}
}

// BenchmarkRoundChurn measures a complete ACE round (Phases 1–3) under
// light churn, from the dynamic steady state: with the degree ceiling
// holding the mean degree near 10, Phase 3 settles to a few dozen
// rewires per round, so the exact dirty set stays a modest fraction of
// the population and the end-to-end gap is dominated by the rebuild
// work the incremental engine skips. Per-phase metrics attribute the
// round's time (phase3 must read ~equal for both engines — the overlay
// trajectories are identical).
func BenchmarkRoundChurn(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "incremental"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			s := getRoundBenchSystem(b, full)
			benchmarkRounds(b, s, 2, false)
		})
	}
	// Tracer-overhead rows on the incremental fixture: `traced` runs
	// with full-capture rings, `flight` with the small always-on rings
	// the flight recorder uses. scripts/bench.sh -compare diffs these
	// against `incremental` (the tracing-disabled path, whose own
	// overhead — one atomic load per round — is gated by CI against the
	// committed baselines).
	for _, tc := range []struct {
		name string
		cap  int
	}{
		{"traced", tracer.DefaultCapacity},
		{"flight", tracer.FlightCapacity},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tracer.Enable(tc.cap)
			defer tracer.Disable()
			s := getRoundBenchSystem(b, false)
			benchmarkRounds(b, s, 2, false)
		})
	}
	// Sharded sweep at 10k peers (shards0 is the serial engine on the
	// same fixture): scripts/bench.sh -shards emits this as the
	// speedup-vs-shards curve. On a multi-core host the fan-out phases
	// scale with the shard count; on one core the curve instead prices
	// the sharding machinery's overhead.
	for _, shards := range []int{0, 2, 4, 8} {
		b.Run(fmt.Sprintf("n10000/shards%d", shards), func(b *testing.B) {
			s := getShardBenchSystem(b, 10000, 10000, shards, 30)
			benchmarkRounds(b, s, 4, true)
		})
	}
	// The 100k-peer target scale of the sharded engine. Attachment
	// points are shared (8192 physical nodes) and churn joins uniformly:
	// both keep fixture costs out of the measured round. 15 priming
	// rounds reach dynamic steady state — at benchtime 1x (CI smoke) a
	// single iteration would otherwise measure the convergence tail,
	// where the rewiring rate and hence the merge are several× steady.
	b.Run("n100000", func(b *testing.B) {
		s := getShardBenchSystem(b, 100000, 8192, 8, 15)
		benchmarkRounds(b, s, 10, true)
	})
}

// benchmarkRounds drives churn+Round iterations on a steady-state
// fixture, attributing per-phase (and, sharded, merge) nanos.
func benchmarkRounds(b *testing.B, s *benchSystem, churn int, uniform bool) {
	rng := sim.NewRNG(99)
	var rebuildNs, phase3Ns, repairNs, mergeNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if uniform {
			s.churnPeersUniform(churn)
		} else {
			s.churnPeers(churn)
		}
		b.StartTimer()
		rep := s.round(rng)
		rebuildNs += rep.RebuildNanos
		phase3Ns += rep.Phase3Nanos
		repairNs += rep.RepairNanos
		mergeNs += rep.MergeNanos
	}
	b.StopTimer()
	b.ReportMetric(float64(rebuildNs)/float64(b.N), "rebuild-ns/op")
	b.ReportMetric(float64(phase3Ns)/float64(b.N), "phase3-ns/op")
	b.ReportMetric(float64(repairNs)/float64(b.N), "repair-ns/op")
	if mergeNs > 0 {
		b.ReportMetric(float64(mergeNs)/float64(b.N), "merge-ns/op")
	}
}

// BenchmarkRoundMillion is the million-peer demonstration round
// (EXPERIMENTS.md §sharded). It allocates several GB and takes minutes
// to prime, so it only runs when ACE_BENCH_MILLION=1 is exported; CI's
// benchtime-1x smoke skips it.
func BenchmarkRoundMillion(b *testing.B) {
	if os.Getenv("ACE_BENCH_MILLION") != "1" {
		b.Skip("set ACE_BENCH_MILLION=1 to run the 1M-peer round")
	}
	s := getShardBenchSystem(b, 1000000, 4096, 8, 10)
	benchmarkRounds(b, s, 20, true)
}
