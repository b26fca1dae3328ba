package experiments

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"ace/internal/core"
)

// testScale keeps the integration tests laptop-fast while preserving the
// shapes being asserted.
var testScale = Scale{
	PhysicalNodes:      600,
	Peers:              200,
	Seeds:              []int64{1},
	QueriesPerPoint:    15,
	TTL:                1 << 20,
	RespondersPerQuery: 3,
}

func TestScaleValidation(t *testing.T) {
	bad := []Scale{
		{},
		{PhysicalNodes: 100, Peers: 200, Seeds: []int64{1}, QueriesPerPoint: 1, TTL: 1, RespondersPerQuery: 1},
		{PhysicalNodes: 100, Peers: 50, QueriesPerPoint: 1, TTL: 1, RespondersPerQuery: 1}, // no seeds
		{PhysicalNodes: 100, Peers: 50, Seeds: []int64{1}, QueriesPerPoint: 0, TTL: 1, RespondersPerQuery: 1},
	}
	for i, sc := range bad {
		if _, err := BuildEnv(1, sc, 6); err == nil {
			t.Fatalf("scale %d accepted: %+v", i, sc)
		}
	}
}

func TestBuildEnvDeterministic(t *testing.T) {
	a, err := BuildEnv(5, testScale, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildEnv(5, testScale, 8)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Net.SnapshotEdges(), b.Net.SnapshotEdges()
	if len(ea) != len(eb) {
		t.Fatal("same seed produced different overlays")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	if !a.Net.IsConnected() {
		t.Fatal("generated overlay disconnected")
	}
}

func TestStaticConvergenceShapes(t *testing.T) {
	conv, err := StaticConvergence(testScale, []int{8}, 8, 1, core.PolicyRandom)
	if err != nil {
		t.Fatal(err)
	}
	tr := conv.Traffic[8]
	if len(tr) != 9 {
		t.Fatalf("want 9 points (blind + 8 steps), got %d", len(tr))
	}
	// Headline claim: substantial traffic reduction over blind flooding.
	if conv.Reduction(8) < 0.30 {
		t.Fatalf("traffic reduction %.2f, want >= 0.30", conv.Reduction(8))
	}
	// Response time improves as the overlay localizes.
	if conv.ResponseReduction(8) < 0.05 {
		t.Fatalf("response reduction %.2f, want >= 0.05", conv.ResponseReduction(8))
	}
	// "Without shrinking the search scope": every step covers ~everyone.
	for k, s := range conv.Scope[8] {
		if s < 0.995*float64(testScale.Peers) {
			t.Fatalf("step %d scope %.1f below 99.5%% of %d", k, s, testScale.Peers)
		}
	}
	// Figures render with the requested curves.
	fig := conv.TrafficFigure()
	if fig.ID != "fig7" || len(fig.Curves) != 1 || len(fig.Curves[0].Points) != 9 {
		t.Fatalf("traffic figure malformed: %+v", fig)
	}
	if conv.ResponseFigure().ID != "fig8" || conv.ScopeFigure().ID != "scope" {
		t.Fatal("figure ids wrong")
	}
}

func TestStaticConvergenceValidation(t *testing.T) {
	if _, err := StaticConvergence(testScale, []int{8}, 0, 1, core.PolicyRandom); err == nil {
		t.Fatal("steps=0 accepted")
	}
	if _, err := StaticConvergence(testScale, []int{8}, 2, 0, core.PolicyRandom); err == nil {
		t.Fatal("depth=0 accepted")
	}
}

func TestDepthSweepShapes(t *testing.T) {
	dr, err := DepthSweep(testScale, []int{8}, []int{1, 2, 3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2, r3 := dr.ReductionRate[8][1], dr.ReductionRate[8][2], dr.ReductionRate[8][3]
	// Figure 11: reduction grows with closure depth (small slack for
	// sampling noise at this tiny scale).
	if !(r3 > r1-0.02 && r3 > 0.5) {
		t.Fatalf("reduction not growing with h: h1=%.2f h2=%.2f h3=%.2f", r1, r2, r3)
	}
	// Figure 12: exchange overhead grows with closure depth.
	o1, o3 := dr.OverheadPerCycle[8][1], dr.OverheadPerCycle[8][3]
	if !(o1 > 0 && o3 > o1) {
		t.Fatalf("overhead not growing with h: %v vs %v", o1, o3)
	}
	// Scope retained at every depth.
	for h := 1; h <= 3; h++ {
		if dr.ScopeRatio[8][h] < 0.995 {
			t.Fatalf("h=%d scope ratio %.3f", h, dr.ScopeRatio[8][h])
		}
	}
	// Rates scale linearly in R and the minimal depth is monotone.
	if dr.Rate(8, 1, 2) <= dr.Rate(8, 1, 1) {
		t.Fatal("rate not increasing in R")
	}
	hLow, hHigh := dr.MinimalDepth(8, 0.1), dr.MinimalDepth(8, 100)
	if hLow != 0 {
		t.Fatalf("tiny R profitable at h=%d", hLow)
	}
	if hHigh != 1 {
		t.Fatalf("huge R should be profitable at h=1, got %d", hHigh)
	}
	// Figure renderers produce the expected series.
	if fig := dr.ReductionFigure(); fig.ID != "fig11" || len(fig.Curves) != 1 || len(fig.Curves[0].Points) != 3 {
		t.Fatalf("fig11 malformed: %+v", fig)
	}
	if fig := dr.RateVsDepthFigure("fig13", 8, []float64{1, 2}); len(fig.Curves) != 2 {
		t.Fatalf("fig13 curves: %+v", fig)
	}
	if fig := dr.RateVsRatioFigure("fig15", 8, []float64{1, 2, 3}); len(fig.Curves) != 3 || len(fig.Curves[0].Points) != 3 {
		t.Fatalf("fig15 malformed: %+v", fig)
	}
}

func TestDynamicRunShapes(t *testing.T) {
	spec := DefaultDynamicSpec(8, true)
	spec.Duration = 12 * time.Minute
	spec.Window = 60

	fig9, fig10, base, aced, err := DynamicFigures(testScale, spec)
	if err != nil {
		t.Fatal(err)
	}
	if base.Queries == 0 || aced.Queries == 0 {
		t.Fatal("no queries issued")
	}
	if len(base.TrafficWindows) == 0 || len(aced.TrafficWindows) == 0 {
		t.Fatal("no windows collected")
	}
	meanOf := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// ACE (overhead included) must beat the Gnutella baseline clearly.
	bt, at := meanOf(base.TrafficWindows), meanOf(aced.TrafficWindows)
	if at > 0.8*bt {
		t.Fatalf("dynamic ACE traffic %v not well below baseline %v", at, bt)
	}
	// Steady-state response time improves too (skip the warm-up window).
	br := meanOf(base.ResponseWindows)
	ar := meanOf(aced.ResponseWindows[len(aced.ResponseWindows)/2:])
	if ar >= br {
		t.Fatalf("dynamic ACE response %v not below baseline %v", ar, br)
	}
	// ACE retains most of the scope under churn.
	if aced.MeanScope < 0.85*base.MeanScope {
		t.Fatalf("dynamic scope %.1f below 85%% of baseline %.1f", aced.MeanScope, base.MeanScope)
	}
	if len(fig9.Curves) != 2 || len(fig10.Curves) != 2 {
		t.Fatal("dynamic figures need baseline + ACE curves")
	}
}

func TestDynamicRunDeterministic(t *testing.T) {
	spec := DefaultDynamicSpec(6, true)
	spec.Duration = 6 * time.Minute
	spec.Window = 40
	a, err := DynamicRun(testScale, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DynamicRun(testScale, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Queries != b.Queries || len(a.TrafficWindows) != len(b.TrafficWindows) {
		t.Fatalf("nondeterministic dynamic run: %d/%d vs %d/%d",
			a.Queries, len(a.TrafficWindows), b.Queries, len(b.TrafficWindows))
	}
	for i := range a.TrafficWindows {
		if a.TrafficWindows[i] != b.TrafficWindows[i] {
			t.Fatalf("window %d differs", i)
		}
	}
}

func TestDynamicSpecValidation(t *testing.T) {
	spec := DefaultDynamicSpec(8, true)
	spec.Duration = 0
	if _, err := DynamicRun(testScale, spec); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestCacheCombo(t *testing.T) {
	res, err := CacheCombo(testScale, 8, 1, 30, 100, 600, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHitRate <= 0 {
		t.Fatal("cache never hit")
	}
	// The combination beats both blind flooding and plain ACE (§5.2).
	if !(res.CachedTraffic < res.ACETraffic && res.ACETraffic < res.BlindTraffic) {
		t.Fatalf("traffic ordering wrong: blind=%.0f ace=%.0f cached=%.0f",
			res.BlindTraffic, res.ACETraffic, res.CachedTraffic)
	}
	if res.CachedResponse >= res.BlindResponse {
		t.Fatalf("cached response %.1f not below blind %.1f", res.CachedResponse, res.BlindResponse)
	}
	if res.TrafficReduction() < 0.5 {
		t.Fatalf("combined traffic reduction %.2f, want >= 0.5 (paper: ~0.75)", res.TrafficReduction())
	}
}

func TestWalkthroughTables(t *testing.T) {
	w, err := Walkthrough()
	if err != nil {
		t.Fatal(err)
	}
	// All three strategies must reach all 5 peers.
	if w.Blind.Scope != 5 || w.H1.Scope != 5 || w.H2.Scope != 5 {
		t.Fatalf("scopes: blind=%d h1=%d h2=%d, want 5", w.Blind.Scope, w.H1.Scope, w.H2.Scope)
	}
	// Trees cut traffic; the 2-closure tree is at least as good as the
	// 1-closure trees, and duplicates decrease (the paper's point).
	if !(w.H1.TrafficCost < w.Blind.TrafficCost) {
		t.Fatalf("h1 traffic %v not below blind %v", w.H1.TrafficCost, w.Blind.TrafficCost)
	}
	if w.H2.TrafficCost > w.H1.TrafficCost {
		t.Fatalf("h2 traffic %v above h1 %v", w.H2.TrafficCost, w.H1.TrafficCost)
	}
	if !(w.H2.Duplicates <= w.H1.Duplicates && w.H1.Duplicates < w.Blind.Duplicates) {
		t.Fatalf("duplicates not decreasing: blind=%d h1=%d h2=%d",
			w.Blind.Duplicates, w.H1.Duplicates, w.H2.Duplicates)
	}
	if len(w.Table1.Rows) == 0 || len(w.Table2.Rows) == 0 {
		t.Fatal("empty tables")
	}
	if w.Table1.Total != w.H1.TrafficCost || w.Table2.Total != w.H2.TrafficCost {
		t.Fatal("table totals disagree with query results")
	}
	if w.Table1.Render() == "" || w.Table2.Render() == "" {
		t.Fatal("tables failed to render")
	}
}

func TestFigure3Example(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if res.ScopeBlind != 4 || res.ScopeTree != 4 {
		t.Fatalf("scopes %d/%d, want 4/4", res.ScopeBlind, res.ScopeTree)
	}
	if res.TreeTraffic >= res.BlindTraffic {
		t.Fatalf("tree traffic %v not below blind %v", res.TreeTraffic, res.BlindTraffic)
	}
	// A's neighbor split: B flooding (cheapest chain), C and D demoted.
	if len(res.FloodingSet) != 1 || res.FloodingSet[0] != "B" {
		t.Fatalf("flooding set %v, want [B]", res.FloodingSet)
	}
	if len(res.NonFlooding) != 2 {
		t.Fatalf("non-flooding %v, want two entries", res.NonFlooding)
	}
}

func TestPolicyAblationRuns(t *testing.T) {
	fig, tbl, err := PolicyAblation(testScale, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Curves) != 3 {
		t.Fatalf("want 3 policy curves, got %d", len(fig.Curves))
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("want 3 table rows, got %d", len(tbl.Rows))
	}
}

func TestRealWorldConsistency(t *testing.T) {
	res, err := RealWorld(testScale, 8, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedReduction <= 0 || res.SnapshotReduction <= 0 {
		t.Fatalf("reductions not positive: %+v", res)
	}
	// The paper reports "consistent results" across topology sources.
	if math.Abs(res.GeneratedReduction-res.SnapshotReduction) > 0.30 {
		t.Fatalf("snapshot (%.2f) inconsistent with generated (%.2f)",
			res.SnapshotReduction, res.GeneratedReduction)
	}
}

func TestBaselinesComparison(t *testing.T) {
	res, err := Baselines(testScale, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ACE", "AOTO", "LTM"} {
		tr := res.Traffic[name]
		if len(tr) != 7 {
			t.Fatalf("%s: %d points, want 7", name, len(tr))
		}
		if tr[len(tr)-1] >= tr[0] {
			t.Fatalf("%s did not reduce traffic: %v -> %v", name, tr[0], tr[len(tr)-1])
		}
		if res.Overhead[name] <= 0 {
			t.Fatalf("%s overhead not accounted", name)
		}
	}
	// The paper's ordering: ACE converges at least as well as the AOTO
	// prototype, and the tree-based schemes beat link-set-only LTM.
	aceFinal := res.Traffic["ACE"][6]
	ltmFinal := res.Traffic["LTM"][6]
	if aceFinal >= ltmFinal {
		t.Fatalf("ACE (%.0f) should beat LTM (%.0f)", aceFinal, ltmFinal)
	}
	if fig := res.Figure(); len(fig.Curves) != 3 {
		t.Fatalf("baselines figure curves: %d", len(fig.Curves))
	}
	if tbl := res.Table(); len(tbl.Rows) != 3 {
		t.Fatalf("baselines table rows: %d", len(tbl.Rows))
	}
}

func TestWalksComparison(t *testing.T) {
	res, err := Walks(testScale, 8, 6, 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	if res.BeforeSuccess <= 0 || res.AfterSuccess <= 0 {
		t.Fatalf("walks never succeeded: %+v", res)
	}
	// ACE's rewiring must cut the physical cost of random walks too —
	// §2's argument that mismatch limits heuristic routing as well.
	if res.AfterTraffic >= res.BeforeTraffic {
		t.Fatalf("walk traffic not reduced: %v -> %v", res.BeforeTraffic, res.AfterTraffic)
	}
}

func TestRobustnessAcrossSubstrates(t *testing.T) {
	res, err := Robustness(testScale, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.BAReduction <= 0.2 || res.TransitStubReduction <= 0.2 {
		t.Fatalf("ACE gains collapsed on a substrate: %+v", res)
	}
}

func TestTwoTier(t *testing.T) {
	res, err := TwoTier(testScale, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, assign := range []string{"random", "nearest"} {
		blind := res.Traffic[assign]["blind"]
		ace := res.Traffic[assign]["ace"]
		if !(blind > 0 && ace > 0 && ace < blind) {
			t.Fatalf("%s: ACE on the supernode tier did not help: %v vs %v", assign, ace, blind)
		}
	}
	// Locality-aware leaf homing must beat random homing on response
	// time (the uplink is a small share of the flood traffic but a
	// large share of the first-response latency) — the two-tier face of
	// the mismatch problem.
	if res.Response["nearest"]["ace"] >= res.Response["random"]["ace"] {
		t.Fatalf("nearest homing response (%v) not below random (%v)",
			res.Response["nearest"]["ace"], res.Response["random"]["ace"])
	}
	if len(res.Table().Rows) != 4 {
		t.Fatal("two-tier table malformed")
	}
}

func TestChurnSweep(t *testing.T) {
	res, err := ChurnSweep(testScale, 8,
		[]time.Duration{4 * time.Minute, 16 * time.Minute}, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i, red := range res.Reduction {
		if red < 0.3 {
			t.Fatalf("lifetime %v: reduction %.2f too small", res.Lifetimes[i], red)
		}
		if res.ScopeRatio[i] < 0.80 {
			t.Fatalf("lifetime %v: scope ratio %.2f", res.Lifetimes[i], res.ScopeRatio[i])
		}
	}
	// Calmer networks give ACE more time between rewires: reduction at
	// 16-minute lifetimes must be at least as good as at 4 minutes
	// (small slack for window noise).
	if res.Reduction[1] < res.Reduction[0]-0.08 {
		t.Fatalf("reduction fell with calmer churn: %v", res.Reduction)
	}
	if len(res.Figure().Curves) != 1 {
		t.Fatal("churn sweep figure malformed")
	}
	if _, err := ChurnSweep(testScale, 8, nil, time.Minute); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestWalksIncludesHPF(t *testing.T) {
	res, err := Walks(testScale, 8, 6, 8, 128)
	if err != nil {
		t.Fatal(err)
	}
	if res.HPFBeforeTraffic <= 0 {
		t.Fatal("HPF baseline not measured")
	}
	if res.HPFAfterTraffic >= res.HPFBeforeTraffic {
		t.Fatalf("HPF traffic not reduced by ACE rewiring: %v -> %v",
			res.HPFBeforeTraffic, res.HPFAfterTraffic)
	}
}

func TestAblation(t *testing.T) {
	res, err := Ablation(testScale, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The dense-knowledge reading must beat the sparse one — the
	// empirical basis of DESIGN.md §5.1. The gap widens with network
	// size (sparse collapses toward zero at thousands of peers); at this
	// test scale it is a solid margin rather than a collapse.
	if res.Reduction["full"] < res.Reduction["sparse-knowledge"]+0.08 {
		t.Fatalf("dense knowledge not clearly better: full=%.2f sparse=%.2f",
			res.Reduction["full"], res.Reduction["sparse-knowledge"])
	}
	// Election pruning must beat unpruned sibling launches at h=2.
	if res.Reduction["full-h2"] < res.Reduction["no-election"]+0.10 {
		t.Fatalf("election not clearly better: full-h2=%.2f no-election=%.2f",
			res.Reduction["full-h2"], res.Reduction["no-election"])
	}
	// Every variant keeps the scope (the ablations cost traffic, not
	// coverage).
	for name, scope := range res.Scope {
		if scope < 0.99 {
			t.Fatalf("%s scope ratio %.3f", name, scope)
		}
	}
	if len(res.Table().Rows) != 4 {
		t.Fatal("ablation table malformed")
	}
}

// TestWalkthroughGoldenNumbers pins the exact worked-example values
// recorded in EXPERIMENTS.md; any mechanism change that shifts them
// must update the documentation.
func TestWalkthroughGoldenNumbers(t *testing.T) {
	w, err := Walkthrough()
	if err != nil {
		t.Fatal(err)
	}
	if w.Blind.TrafficCost != 43 || w.Blind.Duplicates != 4 {
		t.Fatalf("blind: traffic %v dup %d, EXPERIMENTS.md says 43/4", w.Blind.TrafficCost, w.Blind.Duplicates)
	}
	if w.H1.TrafficCost != 32 || w.H1.Duplicates != 3 {
		t.Fatalf("h1: traffic %v dup %d, EXPERIMENTS.md says 32/3", w.H1.TrafficCost, w.H1.Duplicates)
	}
	if w.H2.TrafficCost != 20 || w.H2.Duplicates != 0 {
		t.Fatalf("h2: traffic %v dup %d, EXPERIMENTS.md says 20/0", w.H2.TrafficCost, w.H2.Duplicates)
	}
	f3, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if f3.BlindTraffic != 34 || f3.TreeTraffic != 11 {
		t.Fatalf("fig3: %v -> %v, EXPERIMENTS.md says 34 -> 11", f3.BlindTraffic, f3.TreeTraffic)
	}
}

func TestStaticConvergenceDeterministic(t *testing.T) {
	run := func() []float64 {
		conv, err := StaticConvergence(testScale, []int{6}, 3, 1, core.PolicyRandom)
		if err != nil {
			t.Fatal(err)
		}
		return conv.Traffic[6]
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestMeasureQueriesParallelDeterminism pins the tentpole guarantee of
// the parallel query path: a run across the full worker pool produces a
// QuerySample bit-identical to a run forced onto one worker
// (GOMAXPROCS=1), for both forwarders. Fresh environments per run keep
// the oracle cache from leaking state between the two.
func TestMeasureQueriesParallelDeterminism(t *testing.T) {
	build := func() (*Env, *core.Optimizer) {
		env, err := BuildEnv(11, testScale, 6)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := core.NewOptimizer(env.Net, core.DefaultConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		opt.RebuildTrees()
		return env, opt
	}

	envP, optP := build()
	parTree := envP.MeasureQueries(core.TreeForwarding{Opt: optP}, 24, "det")
	parBlind := envP.MeasureQueries(core.BlindFlooding{Net: envP.Net}, 24, "det-blind")

	prev := runtime.GOMAXPROCS(1)
	envS, optS := build()
	serTree := envS.MeasureQueries(core.TreeForwarding{Opt: optS}, 24, "det")
	serBlind := envS.MeasureQueries(core.BlindFlooding{Net: envS.Net}, 24, "det-blind")
	runtime.GOMAXPROCS(prev)

	if parTree != serTree {
		t.Fatalf("tree sample diverged:\nparallel %+v\nserial   %+v", parTree, serTree)
	}
	if parBlind != serBlind {
		t.Fatalf("blind sample diverged:\nparallel %+v\nserial   %+v", parBlind, serBlind)
	}

	// And the parallel run itself is reproducible.
	envR, optR := build()
	again := envR.MeasureQueries(core.TreeForwarding{Opt: optR}, 24, "det")
	if again != parTree {
		t.Fatalf("parallel rerun diverged:\n%+v\n%+v", again, parTree)
	}
}

// TestForEachReturnsLowestIndexError: with failures at indices 3 and 7,
// forEach reports index 3's error on every schedule. Index 3 holds its
// failure back until index 7 has failed (or, with one worker, where 7
// can only run after 3, until a short timer fires), so a forEach that
// returned whichever error arrived first would report 7's.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	err3, err7 := errors.New("index 3"), errors.New("index 7")
	for run := 0; run < 20; run++ {
		seven := make(chan struct{})
		err := forEach(10, func(i int) error {
			switch i {
			case 3:
				select {
				case <-seven:
				case <-time.After(20 * time.Millisecond):
				}
				return err3
			case 7:
				close(seven)
				return err7
			}
			return nil
		})
		if err != err3 {
			t.Fatalf("run %d: forEach returned %v, want index 3's error", run, err)
		}
	}
	if err := forEach(0, func(int) error { return err7 }); err != nil {
		t.Fatalf("forEach over no items returned %v", err)
	}
}
