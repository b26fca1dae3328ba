package experiments

import (
	"fmt"
	"math"

	"ace/internal/core"
	"ace/internal/metrics"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/report"
	"ace/internal/sim"
	"ace/internal/supernode"
	"ace/internal/topology"
)

// TwoTierResult measures the KaZaA-style deployment of the paper's
// introduction: queries flood among supernodes only. Mismatch appears at
// both tiers — leaves homed on random supernodes pay long uplinks, and
// the supernode overlay itself is mismatched — so the grid crosses leaf
// assignment {random, nearest} with supernode routing {blind, ACE}.
type TwoTierResult struct {
	// Traffic[assign][routing] and Response[assign][routing], with
	// assign ∈ {"random", "nearest"} and routing ∈ {"blind", "ace"}.
	Traffic  map[string]map[string]float64
	Response map[string]map[string]float64
}

// TwoTier builds the two-tier overlay (one supernode per ~10 leaves) and
// measures a keyword workload under all four configurations.
func TwoTier(sc Scale, c, steps int) (*TwoTierResult, error) {
	res := &TwoTierResult{
		Traffic:  map[string]map[string]float64{},
		Response: map[string]map[string]float64{},
	}
	nSupers := sc.Peers / 10
	if nSupers < 10 {
		nSupers = 10
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	// One physical substrate for the whole grid (no leaf-tier overlay is
	// needed, so the pieces are built directly rather than via BuildEnv).
	rootRNG := sim.NewRNG(sc.Seeds[0])
	phys, err := topology.GenerateBA(rootRNG.Derive("phys"), topology.DefaultBASpec(sc.PhysicalNodes))
	if err != nil {
		return nil, err
	}
	oracle := physical.NewOracle(phys.Graph)
	for _, policy := range []supernode.AssignPolicy{supernode.AssignRandom, supernode.AssignNearest} {
		// The supernode tier is derived independently of the assignment
		// policy so both grid rows flood the identical overlay and only
		// the leaf homing differs.
		rng := rootRNG.Derive("twotier")
		attach, err := overlay.RandomAttachments(rng.Derive("at"), sc.PhysicalNodes, nSupers)
		if err != nil {
			return nil, err
		}
		super, err := overlay.NewNetwork(oracle, attach)
		if err != nil {
			return nil, err
		}
		if err := overlay.GenerateSmallWorld(rng.Derive("gen"), super, c, TriadProb); err != nil {
			return nil, err
		}
		tier, err := supernode.Build(rng.Derive("tier/"+policy.String()), super, oracle, sc.Peers, policy)
		if err != nil {
			return nil, err
		}
		// Every leaf publishes one keyword from a small corpus.
		keywords := sc.Peers / 4
		if keywords < 10 {
			keywords = 10
		}
		pubRNG := rng.Derive("publish")
		for i := 0; i < tier.NumLeaves(); i++ {
			tier.Publish(i, pubRNG.Intn(keywords))
		}

		measure := func(fwd core.Forwarder, label string) (float64, float64) {
			qrng := rng.Derive("queries/" + label)
			var tr, rs metrics.Agg
			for q := 0; q < sc.QueriesPerPoint; q++ {
				r := tier.Query(fwd, qrng.Intn(tier.NumLeaves()), qrng.Intn(keywords), sc.TTL)
				tr.Add(r.TrafficCost)
				if !math.IsInf(r.FirstResponse, 1) {
					rs.Add(r.FirstResponse)
				}
			}
			return tr.Mean(), rs.Mean()
		}

		blindT, blindR := measure(core.BlindFlooding{Net: super}, "blind")
		opt, err := core.NewOptimizer(super, core.DefaultConfig(1))
		if err != nil {
			return nil, err
		}
		optRNG := rng.Derive("opt")
		for k := 0; k < steps; k++ {
			opt.Round(optRNG)
		}
		opt.RebuildTrees()
		aceT, aceR := measure(core.TreeForwarding{Opt: opt}, "ace")

		res.Traffic[policy.String()] = map[string]float64{"blind": blindT, "ace": aceT}
		res.Response[policy.String()] = map[string]float64{"blind": blindR, "ace": aceR}
	}
	return res, nil
}

// Table renders the 2×2 grid.
func (r *TwoTierResult) Table() *report.Table {
	tbl := &report.Table{
		ID:    "twotier",
		Title: "Two-tier (KaZaA-style) overlay: traffic / response per query",
		Cols:  []string{"leaf assignment", "supernode routing", "traffic", "response (ms)"},
	}
	for _, assign := range []string{"random", "nearest"} {
		for _, routing := range []string{"blind", "ace"} {
			tbl.AddRow(assign, routing,
				trim(r.Traffic[assign][routing]), trim(r.Response[assign][routing]))
		}
	}
	return tbl
}

func trim(v float64) string {
	return fmt.Sprintf("%.0f", v)
}
