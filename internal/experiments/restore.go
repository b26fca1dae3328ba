package experiments

import (
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// RestoreEnv rebuilds the environment scaffolding for a checkpointed
// run. The physical topology and its oracle are regenerated from the
// seed — they are pure functions of it and never mutate — while the
// overlay, the part history rewires, is restored from the checkpoint
// instead of generated. The returned Env's RNG is the same root stream
// BuildEnv returns; Derive consumes nothing, so derived streams only
// need their positions fast-forwarded by the caller.
func RestoreEnv(seed int64, sc Scale, st *overlay.NetState) (*Env, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(sc.PhysicalNodes))
	if err != nil {
		return nil, err
	}
	oracle := physical.NewOracle(phys.Graph)
	net, err := overlay.RestoreNetwork(oracle, st)
	if err != nil {
		return nil, err
	}
	return &Env{Seed: seed, Scale: sc, Phys: phys, Oracle: oracle, Net: net, RNG: rng}, nil
}
