// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), all built on the same environment plumbing:
// a BA physical topology, a random logical overlay on top of it, the ACE
// optimizer, and query measurement via the closed-form evaluator.
//
// Every driver is deterministic given a Scale (which carries the seeds)
// and returns report.Figure / report.Table values; cmd/figures renders
// them at paper scale and bench_test.go at laptop scale.
package experiments

import (
	"fmt"
	"math"
	"runtime"

	"ace/internal/core"
	"ace/internal/gnutella"
	"ace/internal/metrics"
	"ace/internal/obs"
	"ace/internal/overlay"
	"ace/internal/par"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// Scale sets the size of every experiment. The paper simulates 10
// physical topologies of 10,000 nodes with logical topologies of several
// thousand peers; Bench shrinks that to laptop size while preserving
// every curve's shape.
type Scale struct {
	// PhysicalNodes is the size of each generated physical topology.
	PhysicalNodes int
	// Peers is the logical overlay population.
	Peers int
	// Seeds lists the topology seeds to average over (the paper uses 10
	// independent physical topologies).
	Seeds []int64
	// QueriesPerPoint is how many random query sources are averaged for
	// each measured point.
	QueriesPerPoint int
	// TTL bounds each query flood. The static figures use a TTL large
	// enough to cover every peer ("the search scope is all peers").
	TTL int
	// RespondersPerQuery is how many random peers hold each query's
	// object (sets the response-time distribution).
	RespondersPerQuery int
}

// BenchScale is the laptop-size preset used by `go test -bench`.
var BenchScale = Scale{
	PhysicalNodes:      1200,
	Peers:              400,
	Seeds:              []int64{1},
	QueriesPerPoint:    40,
	TTL:                1 << 20,
	RespondersPerQuery: 4,
}

// MediumScale is the default for cmd/figures.
var MediumScale = Scale{
	PhysicalNodes:      4000,
	Peers:              2000,
	Seeds:              []int64{1, 2, 3},
	QueriesPerPoint:    60,
	TTL:                1 << 20,
	RespondersPerQuery: 20,
}

// PaperScale matches the paper's §4.1 setup (slow: minutes per figure).
var PaperScale = Scale{
	PhysicalNodes:      10000,
	Peers:              8000,
	Seeds:              []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	QueriesPerPoint:    100,
	TTL:                1 << 20,
	RespondersPerQuery: 80,
}

func (s Scale) validate() error {
	if s.PhysicalNodes < 4 || s.Peers < 4 || s.Peers > s.PhysicalNodes {
		return fmt.Errorf("experiments: bad sizes phys=%d peers=%d", s.PhysicalNodes, s.Peers)
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("experiments: no seeds")
	}
	if s.QueriesPerPoint < 1 || s.TTL < 1 || s.RespondersPerQuery < 1 {
		return fmt.Errorf("experiments: bad sampling parameters")
	}
	return nil
}

// Env is one built simulation environment.
type Env struct {
	Seed   int64
	Scale  Scale
	Phys   *topology.Physical
	Oracle *physical.Oracle
	Net    *overlay.Network
	RNG    *sim.RNG

	// Stream, when non-nil, receives one gnutella.QueryRecord per
	// measured query. Records are emitted in query-index order after the
	// parallel fold, so the JSONL output is deterministic regardless of
	// worker scheduling. Round stamps each record with the caller's
	// round.
	Stream *obs.Stream
	Round  int
}

// BuildEnv generates the physical topology, attaches peers, and wires a
// random overlay with average degree c — §4.1's setup for one seed.
func BuildEnv(seed int64, sc Scale, c float64) (*Env, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(sc.PhysicalNodes))
	if err != nil {
		return nil, err
	}
	oracle := physical.NewOracle(phys.Graph)
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), sc.PhysicalNodes, sc.Peers)
	if err != nil {
		return nil, err
	}
	net, err := overlay.NewNetwork(oracle, attach)
	if err != nil {
		return nil, err
	}
	if err := overlay.GenerateSmallWorld(rng.Derive("overlay"), net, int(c+0.5), TriadProb); err != nil {
		return nil, err
	}
	return &Env{Seed: seed, Scale: sc, Phys: phys, Oracle: oracle, Net: net, RNG: rng}, nil
}

// TriadProb is the triad-formation probability used for generated
// logical topologies, tuned so the overlay clustering coefficient lands
// in the small-world band measured on Gnutella (≈0.1–0.3).
const TriadProb = 0.6

// QuerySample aggregates the three §4.2 QoS metrics over a batch of
// queries, plus the fault accounting the robustness experiments read.
type QuerySample struct {
	Traffic  metrics.Agg // traffic cost per query
	Response metrics.Agg // first-response time per query (finite only)
	Scope    metrics.Agg // peers reached per query
	// Queries is the number of queries measured.
	Queries int
	// Failed counts queries whose source never received a response
	// (no responder reached — loss, crash debris, or degraded trees).
	Failed int
	// Lost and DeadLetters total the per-flood fault drops.
	Lost, DeadLetters int
}

// SuccessRate is the fraction of queries that received a response.
func (s QuerySample) SuccessRate() float64 {
	if s.Queries == 0 {
		return 0
	}
	return 1 - float64(s.Failed)/float64(s.Queries)
}

// MeasureQueries evaluates n queries from random live sources with the
// given forwarder, each with RespondersPerQuery random responders. The
// label decorrelates this call's randomness from other measurements on
// the same environment.
//
// Queries run in parallel across the worker pool, and the result is
// bit-identical to a serial run: each query index draws from its own
// derived RNG stream (so no stream is shared across goroutines), the
// delay-oracle cache is pre-warmed for every live peer (so no lookup's
// value can depend on which goroutine populated the cache first), and
// the per-query metrics land in per-index slots folded in index order.
func (e *Env) MeasureQueries(fwd core.Forwarder, n int, label string) QuerySample {
	rng := e.RNG.Derive("queries/" + label)
	alive := e.Net.AlivePeers()
	var s QuerySample
	if len(alive) == 0 {
		return s
	}
	warmOracle(e.Net, alive)
	results := make([]gnutella.QueryRecord, n)
	_ = forEach(n, func(i int) error {
		qrng := rng.DeriveN("q", i)
		src := alive[qrng.Intn(len(alive))]
		responders := make(map[overlay.PeerID]bool, e.Scale.RespondersPerQuery)
		for len(responders) < e.Scale.RespondersPerQuery {
			responders[alive[qrng.Intn(len(alive))]] = true
		}
		r := gnutella.Evaluate(e.Net, fwd, src, e.Scale.TTL, responders)
		results[i] = gnutella.NewQueryRecord(label, e.Round, i, src, r)
		return nil
	})
	s.Queries = n
	for i := range results {
		q := &results[i]
		s.Traffic.Add(q.TrafficCost)
		if math.IsInf(q.FirstResponse, 1) {
			s.Failed++
		} else {
			s.Response.Add(q.FirstResponse)
		}
		s.Lost += q.Lost
		s.DeadLetters += q.DeadLetters
		s.Scope.Add(float64(q.Scope))
		if e.Stream != nil {
			e.Stream.EmitQuery(q)
		}
	}
	return s
}

// warmOracle ensures every live peer's distance vector is cached before
// queries fan out. The oracle answers a (u,v) delay from whichever
// endpoint's vector it finds first, so an unwarmed cache would let
// worker timing pick the direction — and the two directions' float
// values need not match bit for bit.
func warmOracle(net *overlay.Network, alive []overlay.PeerID) {
	oracle := net.Oracle()
	sources := make([]int, len(alive))
	for i, p := range alive {
		sources[i] = net.Attachment(p)
	}
	oracle.Warm(sources, 0)
}

// forEach runs fn over [0, n) on GOMAXPROCS workers (par.Run). Results
// must be written into per-index slots by fn; forEach returns the error
// of the lowest failing index, so which failure is reported does not
// depend on the schedule.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	par.Run(runtime.GOMAXPROCS(0), n, func(_, i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
