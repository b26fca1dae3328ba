package experiments

import (
	"ace/internal/core"
	"ace/internal/metrics"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/topology"
)

// RobustnessResult checks that ACE's gains do not depend on the physical
// topology generator: the same convergence run on the default
// locality-aware BA substrate and on a GT-ITM-style transit-stub
// substrate (the explicit AS hierarchy of the paper's motivation).
type RobustnessResult struct {
	BAReduction          float64
	TransitStubReduction float64
	BAResponse           float64
	TransitStubResponse  float64
}

// Robustness runs the h=1 convergence on both substrates.
func Robustness(sc Scale, c, steps int) (*RobustnessResult, error) {
	res := &RobustnessResult{}

	// Default BA substrate.
	conv, err := StaticConvergence(sc, []int{c}, steps, 1, core.PolicyRandom)
	if err != nil {
		return nil, err
	}
	res.BAReduction = conv.Reduction(c)
	res.BAResponse = conv.ResponseReduction(c)

	// Transit-stub substrate: same peers, same overlay generator.
	env, err := BuildEnv(sc.Seeds[0], sc, float64(c)) // for the seeded RNG chain
	if err != nil {
		return nil, err
	}
	rng := env.RNG
	phys, err := topology.GenerateTransitStub(rng.Derive("ts-phys"), topology.DefaultTransitStubSpec(sc.PhysicalNodes))
	if err != nil {
		return nil, err
	}
	oracle := physical.NewOracle(phys.Graph)
	attach, err := overlay.RandomAttachments(rng.Derive("ts-attach"), phys.Graph.N(), sc.Peers)
	if err != nil {
		return nil, err
	}
	net, err := overlay.NewNetwork(oracle, attach)
	if err != nil {
		return nil, err
	}
	if err := overlay.GenerateSmallWorld(rng.Derive("ts-overlay"), net, c, TriadProb); err != nil {
		return nil, err
	}
	tsEnv := &Env{Seed: sc.Seeds[0], Scale: sc, Phys: phys, Oracle: oracle, Net: net, RNG: rng.Derive("ts-env")}

	blind := tsEnv.MeasureQueries(core.BlindFlooding{Net: net}, sc.QueriesPerPoint, "ts-blind")
	opt, err := core.NewOptimizer(net, core.DefaultConfig(1))
	if err != nil {
		return nil, err
	}
	optRNG := rng.Derive("ts-opt")
	for k := 0; k < steps; k++ {
		opt.Round(optRNG)
	}
	opt.RebuildTrees()
	ace := tsEnv.MeasureQueries(core.TreeForwarding{Opt: opt}, sc.QueriesPerPoint, "ts-ace")
	res.TransitStubReduction = metrics.Reduction(blind.Traffic.Mean(), ace.Traffic.Mean())
	res.TransitStubResponse = metrics.Reduction(blind.Response.Mean(), ace.Response.Mean())
	return res, nil
}
