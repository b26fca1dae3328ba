package supernode

import (
	"math"
	"testing"

	"ace/internal/core"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

func fixture(t *testing.T, policy AssignPolicy) (*Tier, *physical.Oracle) {
	t.Helper()
	rng := sim.NewRNG(61)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(800))
	if err != nil {
		t.Fatal(err)
	}
	oracle := physical.NewOracle(phys.Graph)
	attach, err := overlay.RandomAttachments(rng.Derive("at"), 800, 60)
	if err != nil {
		t.Fatal(err)
	}
	super, err := overlay.NewNetwork(oracle, attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := overlay.GenerateSmallWorld(rng.Derive("gen"), super, 6, 0.6); err != nil {
		t.Fatal(err)
	}
	tier, err := Build(rng.Derive("tier"), super, oracle, 300, policy)
	if err != nil {
		t.Fatal(err)
	}
	return tier, oracle
}

func TestBuildHomesEveryLeaf(t *testing.T) {
	tier, _ := fixture(t, AssignRandom)
	if tier.NumLeaves() != 300 {
		t.Fatalf("leaves = %d, want 300", tier.NumLeaves())
	}
	homed := 0
	for _, s := range tier.Super.AlivePeers() {
		for _, id := range tier.LeavesOf(s) {
			if tier.Leaf(id).Super != s {
				t.Fatalf("leaf %d home mismatch", id)
			}
			homed++
		}
	}
	if homed != 300 {
		t.Fatalf("homed = %d, want 300", homed)
	}
}

func TestNearestAssignmentBeatsRandom(t *testing.T) {
	randTier, _ := fixture(t, AssignRandom)
	nearTier, _ := fixture(t, AssignNearest)
	mean := func(tr *Tier) float64 {
		sum := 0.0
		for i := 0; i < tr.NumLeaves(); i++ {
			sum += tr.UplinkCost(i)
		}
		return sum / float64(tr.NumLeaves())
	}
	if mean(nearTier) >= mean(randTier) {
		t.Fatalf("nearest assignment uplink %.1f not below random %.1f",
			mean(nearTier), mean(randTier))
	}
}

func TestPublishAndQuery(t *testing.T) {
	tier, _ := fixture(t, AssignRandom)
	tier.Publish(5, 42)
	fwd := core.BlindFlooding{Net: tier.Super}
	r := tier.Query(fwd, 7, 42, 1<<20)
	if math.IsInf(r.FirstResponse, 1) {
		t.Fatal("published keyword not found")
	}
	if r.UplinkCost <= 0 || r.TrafficCost <= r.UplinkCost {
		t.Fatalf("uplink accounting wrong: %+v", r)
	}
	// Unpublished keyword: full flood, no answer.
	miss := tier.Query(fwd, 7, 99, 1<<20)
	if !math.IsInf(miss.FirstResponse, 1) {
		t.Fatal("unpublished keyword answered")
	}
	if miss.Scope != tier.Super.NumAlive() {
		t.Fatalf("flood scope %d, want all %d supernodes", miss.Scope, tier.Super.NumAlive())
	}
}

func TestQuerySameSupernodeAnswersLocally(t *testing.T) {
	tier, _ := fixture(t, AssignRandom)
	// Find two leaves homed on the same supernode.
	var a, b = -1, -1
	for _, s := range tier.Super.AlivePeers() {
		if ids := tier.LeavesOf(s); len(ids) >= 2 {
			a, b = ids[0], ids[1]
			break
		}
	}
	if a < 0 {
		t.Skip("no supernode with two leaves")
	}
	tier.Publish(a, 7)
	r := tier.Query(core.BlindFlooding{Net: tier.Super}, b, 7, 1<<20)
	// The home supernode answers immediately: response = uplink only.
	if math.Abs(r.FirstResponse-r.UplinkCost) > 1e-9 {
		t.Fatalf("local answer should cost only the uplink: %.2f vs %.2f", r.FirstResponse, r.UplinkCost)
	}
}

func TestACEOnSupernodeTier(t *testing.T) {
	tier, _ := fixture(t, AssignRandom)
	rng := sim.NewRNG(62)
	// Publish a corpus.
	for i := 0; i < tier.NumLeaves(); i++ {
		tier.Publish(i, i%50)
	}
	measure := func(fwd core.Forwarder) float64 {
		sum := 0.0
		for q := 0; q < 40; q++ {
			r := tier.Query(fwd, q*7%tier.NumLeaves(), q%50, 1<<20)
			sum += r.TrafficCost
		}
		return sum
	}
	before := measure(core.BlindFlooding{Net: tier.Super})
	opt, err := core.NewOptimizer(tier.Super, core.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 8; k++ {
		opt.Round(rng)
	}
	opt.RebuildTrees()
	after := measure(core.TreeForwarding{Opt: opt})
	if after >= 0.8*before {
		t.Fatalf("ACE on the supernode tier saved too little: %v vs %v", after, before)
	}
}

func TestBuildValidation(t *testing.T) {
	tier, oracle := fixture(t, AssignRandom)
	rng := sim.NewRNG(63)
	if _, err := Build(rng, tier.Super, oracle, 0, AssignRandom); err == nil {
		t.Fatal("zero leaves accepted")
	}
	if _, err := Build(rng, tier.Super, oracle, 1e6, AssignRandom); err == nil {
		t.Fatal("too many leaves accepted")
	}
	if _, err := Build(rng, tier.Super, oracle, 10, AssignPolicy(99)); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if AssignRandom.String() != "random" || AssignNearest.String() != "nearest" {
		t.Fatal("policy strings wrong")
	}
}
