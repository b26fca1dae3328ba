package core

import (
	"fmt"
	"testing"

	"ace/internal/fault"
)

// TestDelayScalingChangesNoDecision is a metamorphic check: its relation
// shares no code with the engine it checks. Figure 4's rules and the
// closure MSTs are pure cost comparisons, so scaling every physical
// delay must not change a decision. Doubling the topology's MinDelay and
// DelayScale doubles every oracle vector bit for bit (scaling by 2 is
// exact in binary floating point), so two systems that differ only
// there must run identical churned rounds: every StepReport counter
// equal, ProbeTraffic and ExchangeCost exactly 2×, and the same edge set
// with every edge cost exactly 2×. The matrix covers both engines and
// both closure depths clean, and both engines under every fault the
// rounds react to.
func TestDelayScalingChangesNoDecision(t *testing.T) {
	const seed, rounds = 313, 40
	plan := fault.Plan{
		Seed: 19, LossRate: 0.05, ProbeTimeoutRate: 0.05,
		ConnectFailRate: 0.05, UnresponsiveFraction: 0.05,
	}
	type variant struct {
		shards, depth int
		plan          fault.Plan
	}
	var variants []variant
	for _, shards := range []int{0, 1, 4} {
		for _, h := range []int{1, 2} {
			variants = append(variants, variant{shards: shards, depth: h})
		}
	}
	for _, shards := range []int{0, 4} {
		variants = append(variants, variant{shards: shards, depth: 1, plan: plan})
	}
	for _, v := range variants {
		name := fmt.Sprintf("shards%d/h%d/clean", v.shards, v.depth)
		if v.plan.Active() {
			name = fmt.Sprintf("shards%d/h%d/faulty", v.shards, v.depth)
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(v.depth)
			cfg.Shards = v.shards
			one, two := newScaledSide(t, seed, cfg, 1), newScaledSide(t, seed, cfg, 2)
			if v.plan.Active() {
				one.net.SetFaults(newInjector(t, v.plan))
				two.net.SetFaults(newInjector(t, v.plan))
			}
			var total StepReport
			for r := 0; r < rounds; r++ {
				one.churnStep(2)
				two.churnStep(2)
				r1, r2 := stripTiming(one.opt.Round(one.round)), stripTiming(two.opt.Round(two.round))
				if r2.ProbeTraffic != 2*r1.ProbeTraffic || r2.ExchangeCost != 2*r1.ExchangeCost {
					t.Fatalf("round %d: probe traffic %v vs %v, exchange cost %v vs %v: not exactly 2×",
						r, r1.ProbeTraffic, r2.ProbeTraffic, r1.ExchangeCost, r2.ExchangeCost)
				}
				r2.ProbeTraffic, r2.ExchangeCost = r1.ProbeTraffic, r1.ExchangeCost
				if r1 != r2 {
					t.Fatalf("round %d: counters diverged\n×1: %+v\n×2: %+v", r, r1, r2)
				}
				e1, e2 := one.net.SnapshotEdges(), two.net.SnapshotEdges()
				if len(e1) != len(e2) {
					t.Fatalf("round %d: %d edges vs %d", r, len(e1), len(e2))
				}
				for i := range e1 {
					if e1[i].P != e2[i].P || e1[i].Q != e2[i].Q || e2[i].Cost != 2*e1[i].Cost {
						t.Fatalf("round %d: edge %d is %+v at ×1, %+v at ×2", r, i, e1[i], e2[i])
					}
				}
				total.Replacements += r1.Replacements
				total.KeptNew += r1.KeptNew
				total.ProbeTimeouts += r1.ProbeTimeouts
				total.FailedConnects += r1.FailedConnects
			}
			// A run that rewires nothing, or meets none of its faults,
			// pins nothing about them.
			if total.Replacements == 0 || total.KeptNew == 0 {
				t.Fatalf("run never rewired: %+v", total)
			}
			if v.plan.Active() && (total.ProbeTimeouts == 0 || total.FailedConnects == 0) {
				t.Fatalf("faulty run met no faults: %+v", total)
			}
		})
	}
}
