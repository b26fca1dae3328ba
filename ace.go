// Package ace is a faithful, from-scratch reproduction of "A Distributed
// Approach to Solving Overlay Mismatching Problem" (Liu, Zhuang, Xiao,
// Ni — ICDCS 2004): the ACE (Adaptive Connection Establishment)
// algorithm, the Gnutella-style unstructured P2P substrate it runs on,
// and the full simulation harness that regenerates every figure and
// table of the paper's evaluation.
//
// The package exposes three layers:
//
//   - System: one simulated P2P deployment — an Internet-like physical
//     topology, a logical overlay on top of it, and an ACE optimizer —
//     with query evaluation against blind flooding or ACE trees.
//   - The experiment drivers (Figures, DepthSweep, Dynamic, …) that
//     regenerate the paper's evaluation at configurable scale.
//   - Re-exported building blocks (overlay, optimizer, forwarders,
//     evaluators) for callers assembling custom setups; the internal
//     packages hold the implementations.
package ace

import (
	"fmt"

	"ace/internal/core"
	"ace/internal/experiments"
	"ace/internal/fault"
	"ace/internal/gnutella"
	"ace/internal/overlay"
	"ace/internal/sim"
	"ace/internal/snap"
)

// Re-exported building-block types.
type (
	// PeerID identifies a peer slot in the overlay.
	PeerID = overlay.PeerID
	// Network is the logical overlay (peers, links, host caches).
	Network = overlay.Network
	// Optimizer runs ACE rounds over a Network.
	Optimizer = core.Optimizer
	// Config parameterizes the optimizer (closure depth, policy,
	// degree ceiling, round engine).
	Config = core.Config
	// Policy selects the Phase-3 replacement policy.
	Policy = core.Policy
	// Forwarder decides where queries are relayed.
	Forwarder = core.Forwarder
	// QueryResult carries the paper's per-query metrics.
	QueryResult = gnutella.QueryResult
	// StepReport summarizes one ACE round.
	StepReport = core.StepReport
	// Scale sets experiment sizes.
	Scale = experiments.Scale
)

// Replacement policies (§6).
const (
	PolicyRandom  = core.PolicyRandom
	PolicyNaive   = core.PolicyNaive
	PolicyClosest = core.PolicyClosest
)

// Experiment scale presets.
var (
	// BenchScale runs every experiment at laptop size.
	BenchScale = experiments.BenchScale
	// MediumScale is the cmd/figures default.
	MediumScale = experiments.MediumScale
	// PaperScale matches the paper's §4.1 setup.
	PaperScale = experiments.PaperScale
)

// DefaultConfig returns the paper-faithful ACE configuration for closure
// depth h.
func DefaultConfig(h int) Config { return core.DefaultConfig(h) }

// DefaultTTL is Gnutella's customary query time-to-live.
const DefaultTTL = gnutella.DefaultTTL

// System is one simulated deployment: physical network, overlay, and
// optimizer, with deterministic seeded randomness.
type System struct {
	env *experiments.Env
	opt *core.Optimizer
	rng *sim.RNG
}

// Options configure NewSystem.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// PhysicalNodes is the physical topology size (default 2000).
	PhysicalNodes int
	// Peers is the overlay population (default 500).
	Peers int
	// AvgDegree is the overlay's average connection count (default 8).
	AvgDegree int
	// Depth is ACE's closure depth h (default 1).
	Depth int
	// Policy is the Phase-3 policy (default PolicyRandom).
	Policy Policy
	// Shards selects the round engine: 0 (default) serial, >0 that many
	// shards, -1 one shard per GOMAXPROCS. See core.Config.Shards.
	Shards int
}

// Option mutates Options.
type Option func(*Options)

// WithSeed sets the deterministic seed.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithSize sets the physical node and peer counts.
func WithSize(physicalNodes, peers int) Option {
	return func(o *Options) { o.PhysicalNodes, o.Peers = physicalNodes, peers }
}

// WithAvgDegree sets the overlay's average connection count.
func WithAvgDegree(c int) Option { return func(o *Options) { o.AvgDegree = c } }

// WithDepth sets ACE's h-neighbor closure depth.
func WithDepth(h int) Option { return func(o *Options) { o.Depth = h } }

// WithPolicy sets the Phase-3 replacement policy.
func WithPolicy(p Policy) Option { return func(o *Options) { o.Policy = p } }

// WithShards selects the sharded round engine: s shards (-1 for one per
// GOMAXPROCS, 0 for the serial engine).
func WithShards(s int) Option { return func(o *Options) { o.Shards = s } }

// NewSystem builds a deployment: a locality-aware BA physical topology,
// a small-world power-law overlay attached to it, and an ACE optimizer
// (no rounds run yet).
func NewSystem(opts ...Option) (*System, error) {
	o := Options{Seed: 1, PhysicalNodes: 2000, Peers: 500, AvgDegree: 8, Depth: 1, Policy: PolicyRandom}
	for _, fn := range opts {
		fn(&o)
	}
	if o.Peers > o.PhysicalNodes {
		return nil, fmt.Errorf("ace: %d peers exceed %d physical nodes", o.Peers, o.PhysicalNodes)
	}
	sc := experiments.BenchScale
	sc.PhysicalNodes = o.PhysicalNodes
	sc.Peers = o.Peers
	env, err := experiments.BuildEnv(o.Seed, sc, float64(o.AvgDegree))
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(o.Depth)
	cfg.Policy = o.Policy
	// Scale the client connection ceiling with the configured average
	// degree: a cap near the population's natural degree starves Phase 3
	// of candidates (saturated peers drop out of candidate lists), while
	// 4x leaves optimization headroom yet still bounds the degree pump
	// under churn.
	cfg.MaxDegree = 4 * o.AvgDegree
	cfg.Shards = o.Shards
	opt, err := core.NewOptimizer(env.Net, cfg)
	if err != nil {
		return nil, err
	}
	return &System{env: env, opt: opt, rng: env.RNG.Derive("system")}, nil
}

// RestoreSystem rebuilds a System from a service-mode checkpoint
// (internal/snap): the physical topology is regenerated from the
// checkpointed seed, the overlay and optimizer are restored from their
// snapshotted state, and the system RNG stream is fast-forwarded to its
// recorded position. When the checkpoint carries an attached fault
// plan, a fresh injector is built from it and attached before the
// optimizer restore — injector decisions are pure hashes of (plan,
// round), so the restored round counter reproduces the schedule — and
// returned so the caller can fold its counts into the checkpointed
// cumulative totals.
func RestoreSystem(sn *snap.Snapshot) (*System, *fault.Injector, error) {
	m := sn.Meta
	sc := experiments.BenchScale
	sc.PhysicalNodes = int(m.PhysicalNodes)
	sc.Peers = int(m.Peers)
	env, err := experiments.RestoreEnv(m.Seed, sc, sn.Net)
	if err != nil {
		return nil, nil, err
	}
	var inj *fault.Injector
	if m.Plan.Active() {
		if inj, err = fault.NewInjector(m.Plan); err != nil {
			return nil, nil, err
		}
		if m.FaultAttached {
			env.Net.SetFaults(inj)
		}
	}
	cfg := core.DefaultConfig(int(m.Depth))
	cfg.Policy = Policy(m.Policy)
	cfg.MaxDegree = 4 * int(m.AvgDegree)
	cfg.Shards = int(m.Shards)
	opt, err := core.NewOptimizer(env.Net, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := opt.RestoreState(sn.Opt); err != nil {
		return nil, nil, err
	}
	rng := env.RNG.Derive("system")
	if pos, ok := sn.Pos("system"); ok {
		if err := rng.SkipTo(pos); err != nil {
			return nil, nil, err
		}
	}
	return &System{env: env, opt: opt, rng: rng}, inj, nil
}

// Network returns the live overlay.
func (s *System) Network() *Network { return s.env.Net }

// RNG returns the system's round-driving RNG stream; service mode
// checkpoints its position.
func (s *System) RNG() *sim.RNG { return s.rng }

// Optimizer returns the ACE optimizer.
func (s *System) Optimizer() *Optimizer { return s.opt }

// Optimize runs n ACE rounds (Phases 1–3 each) and finishes with a fresh
// table exchange so trees reflect the final rewiring. It returns the
// last round's report.
func (s *System) Optimize(n int) StepReport {
	var rep StepReport
	for i := 0; i < n; i++ {
		rep = s.opt.Round(s.rng)
	}
	s.opt.RebuildTrees()
	return rep
}

// Query evaluates one query from src over ACE trees. responders may be
// nil. TTL ≤ 0 means unbounded.
func (s *System) Query(src PeerID, ttl int, responders map[PeerID]bool) QueryResult {
	if ttl <= 0 {
		ttl = 1 << 20
	}
	return gnutella.Evaluate(s.env.Net, core.TreeForwarding{Opt: s.opt}, src, ttl, responders)
}

// QueryBlind evaluates the same query with the blind-flooding baseline.
func (s *System) QueryBlind(src PeerID, ttl int, responders map[PeerID]bool) QueryResult {
	if ttl <= 0 {
		ttl = 1 << 20
	}
	return gnutella.Evaluate(s.env.Net, core.BlindFlooding{Net: s.env.Net}, src, ttl, responders)
}

// Forwarder returns the ACE tree forwarder bound to this system, for use
// with the lower-level evaluators.
func (s *System) Forwarder() Forwarder { return core.TreeForwarding{Opt: s.opt} }

// BlindForwarder returns the blind-flooding baseline forwarder.
func (s *System) BlindForwarder() Forwarder { return core.BlindFlooding{Net: s.env.Net} }

// Env exposes the underlying experiment environment for advanced use.
func (s *System) Env() *experiments.Env { return s.env }
