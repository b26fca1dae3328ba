// Package core implements ACE — Adaptive Connection Establishment — the
// contribution of the reproduced paper (ICDCS 2004, §3):
//
//   - Phase 1: peers probe delays to their logical neighbors and exchange
//     neighbor cost tables, giving each peer the overlay subgraph within
//     its h-neighbor closure.
//   - Phase 2: each peer builds a minimum spanning tree (Prim) over that
//     subgraph; neighbors adjacent on the tree become flooding neighbors,
//     the rest non-flooding neighbors that keep their connection (so the
//     search scope is retained) but receive no queries.
//   - Phase 3: each peer tries to replace far non-flooding neighbors with
//     physically closer peers drawn from those neighbors' own neighbor
//     lists, following the Figure-4 rules.
//
// The packet-level consequences (what a query actually costs) live in
// package gnutella; this package owns the per-peer ACE state machine.
package core

import (
	"fmt"
)

// Policy selects how Phase 3 picks the candidate that may replace a
// non-flooding neighbor. The paper's experiments use PolicyRandom; §6
// sketches the naive and closest alternatives, implemented here as the
// ablation the conclusion calls for.
type Policy int

const (
	// PolicyRandom probes one random neighbor of one random non-flooding
	// neighbor per step (the paper's default).
	PolicyRandom Policy = iota + 1
	// PolicyNaive targets the most expensive non-flooding neighbor and
	// replaces it with the best of a few randomly probed candidates.
	PolicyNaive
	// PolicyClosest probes every neighbor of every non-flooding neighbor
	// and applies the Figure-4 rules to the closest candidate found.
	PolicyClosest
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyRandom:
		return "random"
	case PolicyNaive:
		return "naive"
	case PolicyClosest:
		return "closest"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes an Optimizer.
type Config struct {
	// Depth is the h of the h-neighbor closure (§3.4). 1 reproduces the
	// base ACE; larger values trade exchange overhead for optimization
	// quality (Figures 11–16).
	Depth int
	// Policy is the Phase-3 replacement policy.
	Policy Policy
	// NaiveProbes bounds how many candidates PolicyNaive measures per
	// step (ignored by the other policies).
	NaiveProbes int
	// MaxDegree is the connection ceiling every client enforces (real
	// Gnutella clients likewise refuse connections past their configured
	// maximum). A saturated peer refuses every incoming dial, so Phase 3
	// drops it from candidate lists (probing it would waste the step),
	// Figure-4(c) tentative links additionally require the keeping peer
	// itself to be below the ceiling, and bootstrap repairs skip
	// saturated partners. Without the ceiling, 4(c) tentative links whose
	// compensating cut is consumed by other peers' rewiring pump the mean
	// degree upward without bound (measured ~+60 edges/round at n=1000
	// under light churn), and 4(b) replacements concentrate the remaining
	// slots into a few physically central hubs whose quadratic closure
	// rebuilds then dominate every cycle. Size it with headroom over the
	// overlay's average degree — a tight cap starves optimization (see
	// ace.NewSystem, which uses 4x the configured average). 0 disables
	// the ceiling; DefaultConfig leaves it off because the paper's
	// protocol has no ceiling and the figure reproductions run without
	// one.
	MaxDegree int

	// Shards selects the round engine. 0 (the default) runs the serial
	// engine. A positive value runs the sharded engine of shard.go with
	// exactly that many shards — peers partition into contiguous PeerID
	// ranges, Phase 1/2 sweeps and the Phase-3 propose pass fan out
	// across them through par.Run, and overlay mutations apply serially
	// in the seed-keyed order of the cross-shard merge. −1 caps the
	// shard count at runtime.GOMAXPROCS and lets each shard-owned
	// fan-out narrow itself to its actual work — no more shards than
	// work/minPerShard (shard.go: fanWidth) — so small rounds skip the
	// shard handoffs. Sharded rounds are bit-identical across shard
	// counts (Shards=k matches Shards=1 for every k, which is what makes
	// the per-phase narrowing legal), but the sharded engine's Phase-3
	// propose/merge split is a different — equally protocol-faithful —
	// trajectory than the serial engine's in-place Phase 3; see
	// DESIGN.md §5e.
	Shards int

	// SparseKnowledge is an ABLATION switch: build Phase-2 trees over
	// only the overlay subgraph inside the closure instead of the
	// complete pairwise cost graph (DESIGN.md §5.1 argues the paper's
	// "cost between any pair" + O(m²) Prim imply the dense reading; this
	// switch quantifies what the sparse reading loses).
	SparseKnowledge bool
	// NoLaunchElection is an ABLATION switch: launched trees keep every
	// uncovered member instead of only those the launcher wins the
	// closest-covered-peer election for (DESIGN.md §5.3); without the
	// election, sibling launches re-flood each other's regions.
	NoLaunchElection bool
}

// DefaultConfig returns the paper-faithful configuration: depth h and
// random replacement. The overhead calibration (state.go) and the fault
// hardening (fault.go) are constants of the protocol, not options.
func DefaultConfig(h int) Config {
	return Config{Depth: h, Policy: PolicyRandom, NaiveProbes: 3}
}

// AOTOConfig returns the configuration of AOTO (reference [8], the
// GLOBECOM 2003 preliminary design of ACE): 1-neighbor closures and the
// aggressive "replace the most expensive non-flooding neighbor with the
// closest of its neighbors" rule — PolicyNaive probing every candidate.
func AOTOConfig() Config {
	cfg := DefaultConfig(1)
	cfg.Policy = PolicyNaive
	cfg.NaiveProbes = 1 << 30
	return cfg
}

func (c Config) validate() error {
	if c.Depth < 1 {
		return fmt.Errorf("core: closure depth %d, need >= 1", c.Depth)
	}
	switch c.Policy {
	case PolicyRandom, PolicyNaive, PolicyClosest:
	default:
		return fmt.Errorf("core: unknown policy %d", int(c.Policy))
	}
	if c.NaiveProbes < 1 && c.Policy == PolicyNaive {
		return fmt.Errorf("core: naive policy needs NaiveProbes >= 1")
	}
	if c.MaxDegree < 0 {
		return fmt.Errorf("core: negative MaxDegree")
	}
	if c.MaxDegree > 0 && c.MaxDegree < minDegree {
		return fmt.Errorf("core: MaxDegree %d below the minimum degree %d", c.MaxDegree, minDegree)
	}
	if c.Shards < -1 {
		return fmt.Errorf("core: Shards %d, need >= -1", c.Shards)
	}
	return nil
}
