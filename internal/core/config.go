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
	// ExchangeHeaderCost is the fixed traffic cost of one cost-table
	// exchange message per unit of physical delay, relative to a query
	// message costing 1 per delay unit. One exchange message flows on
	// every logical link each cycle regardless of depth.
	ExchangeHeaderCost float64
	// TableEntryCost is the additional traffic cost of each cost-table
	// entry carried in an exchange message, per unit of physical delay.
	// Entries grow with the closure, so this term makes the overhead
	// climb with h (Figure 12) while the header term keeps shallow
	// depths from being free. See EXPERIMENTS.md for the calibration.
	TableEntryCost float64
	// ProbeCost is the traffic cost of one delay-probe round trip per
	// unit of physical delay.
	ProbeCost float64
	// MinDegree is the connection floor every client maintains (real
	// Gnutella clients keep a minimum number of connections open); a
	// peer below it opens fresh bootstrap connections each round, which
	// is what re-knits pairs severed by Phase-3 rewiring.
	MinDegree int
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
	// across them, and overlay mutations apply through the seed-keyed
	// cross-shard merge (parallelized over conflict-free segments).
	// −1 caps the shard count at runtime.GOMAXPROCS and lets each
	// shard-owned fan-out narrow itself to its actual work — no more
	// shards than work/minPerShard (shard.go: fanWidth) — so small
	// rounds skip the shard handoffs. Sharded rounds are bit-identical
	// across shard counts (Shards=k matches Shards=1 for every k, which
	// is what makes the per-phase narrowing legal), but the sharded
	// engine's Phase-3 propose/merge split is a different — equally
	// protocol-faithful — trajectory than the serial engine's in-place
	// Phase 3; see DESIGN.md §5e.
	Shards int

	// RebuildFraction is the dirty-region share of the live population
	// above which RebuildTrees abandons the incremental path and
	// rebuilds every peer (walking a dirty set close to N costs more
	// than the flat sweep). 0 selects DefaultRebuildFraction; values
	// >= 1 never fall back.
	RebuildFraction float64
	// NoIncremental forces every RebuildTrees to reconstruct all peer
	// states from scratch — the pre-journal behavior, kept as the
	// reference side of the differential tests and as an escape hatch.
	NoIncremental bool
	// NoRepair disables the incremental tree-repair kernel (repair.go):
	// dirty peers always rebuild their closure MST with dense Prim, as
	// before PR 8. The canonical MST is unique, so the trajectory is
	// identical either way — this is the reference side of the
	// repair-vs-full differential tests and an escape hatch.
	NoRepair bool

	// Fault-hardening knobs. They shape how the protocol reacts to an
	// attached fault.Injector; with no injector none of them is ever
	// consulted, so the zero values cost nothing on clean runs.

	// ProbeRetryBudget is how many times a Phase-1 probe that timed out is
	// retried within the round. 0 disables retries: one timeout is final.
	ProbeRetryBudget int
	// ProbeBackoffCap bounds the retry backoff: retry k waits 2^(k−1)
	// probe intervals (capped at 2^ProbeBackoffCap), and the round's retry
	// window is 2^ProbeBackoffCap intervals — so at most ProbeBackoffCap
	// retries fit no matter how large ProbeRetryBudget is. The effective
	// retry count is min(ProbeRetryBudget, ProbeBackoffCap).
	ProbeBackoffCap int
	// StaleTTL is how many consecutive exchange cycles a peer's cost
	// entries may go unrefreshed (every prober exhausted its retries)
	// before the peer is excluded from closures: stale entries are served
	// last-known-good through TTL−1 and the peer drops out at TTL. 0
	// selects DefaultStaleTTL.
	StaleTTL int
	// BlacklistAfter is the consecutive dial-failure streak that
	// blacklists a peer from Phase-3/bootstrap candidate selection. 0
	// disables blacklisting.
	BlacklistAfter int
	// BlacklistBase is the first blacklist duration in rounds; each
	// subsequent blacklisting of the same peer doubles it (capped at
	// BlacklistCap) until a successful connection clears the history.
	BlacklistBase int
	// BlacklistCap is the blacklist-duration ceiling in rounds.
	BlacklistCap int

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

// DefaultConfig returns the paper-faithful configuration: depth h,
// random replacement, and the overhead calibration documented in
// EXPERIMENTS.md.
func DefaultConfig(h int) Config {
	return Config{
		Depth:              h,
		Policy:             PolicyRandom,
		NaiveProbes:        3,
		ExchangeHeaderCost: 0.8,
		TableEntryCost:     4e-6,
		ProbeCost:          0.4,
		MinDegree:          2,
		ProbeRetryBudget:   3,
		ProbeBackoffCap:    4,
		StaleTTL:           DefaultStaleTTL,
		BlacklistAfter:     2,
		BlacklistBase:      2,
		BlacklistCap:       16,
	}
}

// DefaultStaleTTL is the stale-entry TTL in exchange cycles when the
// config leaves it zero.
const DefaultStaleTTL = 3

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
	if c.TableEntryCost < 0 || c.ProbeCost < 0 || c.ExchangeHeaderCost < 0 {
		return fmt.Errorf("core: negative overhead calibration")
	}
	if c.MinDegree < 0 {
		return fmt.Errorf("core: negative MinDegree")
	}
	if c.MaxDegree < 0 {
		return fmt.Errorf("core: negative MaxDegree")
	}
	if c.MaxDegree > 0 && c.MaxDegree < c.MinDegree {
		return fmt.Errorf("core: MaxDegree %d below MinDegree %d", c.MaxDegree, c.MinDegree)
	}
	if c.RebuildFraction < 0 {
		return fmt.Errorf("core: negative RebuildFraction")
	}
	if c.Shards < -1 {
		return fmt.Errorf("core: Shards %d, need >= -1", c.Shards)
	}
	if c.ProbeRetryBudget < 0 || c.ProbeBackoffCap < 0 || c.StaleTTL < 0 ||
		c.BlacklistAfter < 0 || c.BlacklistBase < 0 || c.BlacklistCap < 0 {
		return fmt.Errorf("core: negative fault-hardening knob")
	}
	return nil
}
