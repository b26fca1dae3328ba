package churn

import (
	"math"
	"reflect"
	"testing"
	"time"

	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

func testNet(t *testing.T, seed int64, physN, slots int) *overlay.Network {
	t.Helper()
	rng := sim.NewRNG(seed)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(physN))
	if err != nil {
		t.Fatal(err)
	}
	attach, err := overlay.RandomAttachments(rng.Derive("at"), physN, slots)
	if err != nil {
		t.Fatal(err)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestModelValidation(t *testing.T) {
	net := testNet(t, 1, 50, 20)
	eng := sim.NewEngine()
	rng := sim.NewRNG(2)
	bad := []Model{
		{MeanLifetime: 0, JoinDegree: 4},
		{MeanLifetime: time.Minute, QueriesPerMinute: -1, JoinDegree: 4},
		{MeanLifetime: time.Minute, JoinDegree: 0},
	}
	for _, m := range bad {
		if _, err := NewDriver(eng, net, m, rng); err == nil {
			t.Fatalf("model %+v accepted", m)
		}
	}
	if _, err := NewDriver(eng, net, DefaultModel(4), rng); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPopulation(t *testing.T) {
	net := testNet(t, 3, 400, 300)
	rng := sim.NewRNG(4)
	if err := BuildPopulation(rng, net, 200, 6); err != nil {
		t.Fatal(err)
	}
	if net.NumAlive() != 200 {
		t.Fatalf("alive = %d, want 200", net.NumAlive())
	}
	if !net.IsConnected() {
		t.Fatal("bootstrap population disconnected")
	}
	if d := net.AverageDegree(); math.Abs(d-6) > 0.8 {
		t.Fatalf("average degree %v, want ~6", d)
	}
}

func TestBuildPopulationOddDegree(t *testing.T) {
	net := testNet(t, 5, 400, 300)
	if err := BuildPopulation(sim.NewRNG(6), net, 250, 5); err != nil {
		t.Fatal(err)
	}
	if d := net.AverageDegree(); math.Abs(d-5) > 0.8 {
		t.Fatalf("average degree %v, want ~5", d)
	}
}

func TestBuildPopulationValidation(t *testing.T) {
	net := testNet(t, 7, 50, 20)
	rng := sim.NewRNG(8)
	if err := BuildPopulation(rng, net, 30, 4); err == nil {
		t.Fatal("population > slots accepted")
	}
	if err := BuildPopulation(rng, net, 10, 1); err == nil {
		t.Fatal("degree 1 accepted")
	}
}

func TestDriverMaintainsPopulation(t *testing.T) {
	net := testNet(t, 9, 300, 200)
	rng := sim.NewRNG(10)
	if err := BuildPopulation(rng.Derive("pop"), net, 120, 6); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	model := DefaultModel(6)
	model.MeanLifetime = 2 * time.Minute // speed churn up
	model.StdDevLifetime = time.Minute
	d, err := NewDriver(eng, net, model, rng.Derive("churn"))
	if err != nil {
		t.Fatal(err)
	}
	var queries int
	d.OnQuery = func(src overlay.PeerID) {
		if !net.Alive(src) {
			t.Error("query from dead peer")
		}
		queries++
	}
	d.Start()
	eng.RunUntil(20 * time.Minute)

	if net.NumAlive() != 120 {
		t.Fatalf("population drifted to %d, want 120", net.NumAlive())
	}
	joins, leaves, q := d.Counts()
	if leaves == 0 || joins != leaves {
		t.Fatalf("joins=%d leaves=%d: churn must replace 1:1", joins, leaves)
	}
	// ~120 peers × 0.3/min × 20 min = 720 expected queries.
	if q < 400 || q > 1100 {
		t.Fatalf("queries = %d, want ~720", q)
	}
	if q != queries {
		t.Fatalf("OnQuery fired %d times, counted %d", queries, q)
	}
	// Churn rate sanity: mean lifetime 2 min over 20 min → each slot
	// churns ~10 times → ~1200 leaves for 120 peers; allow broad band.
	if leaves < 600 || leaves > 2000 {
		t.Fatalf("leaves = %d, want ~1200", leaves)
	}
}

func TestDriverDegreeStaysStable(t *testing.T) {
	net := testNet(t, 11, 300, 200)
	rng := sim.NewRNG(12)
	if err := BuildPopulation(rng.Derive("pop"), net, 120, 6); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	model := DefaultModel(6)
	model.MeanLifetime = 90 * time.Second
	model.StdDevLifetime = 45 * time.Second
	model.QueriesPerMinute = 0
	d, err := NewDriver(eng, net, model, rng.Derive("churn"))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	eng.RunUntil(30 * time.Minute)
	if dd := net.AverageDegree(); dd < 4 || dd > 9 {
		t.Fatalf("average degree drifted to %v under churn", dd)
	}
}

func TestDriverDeterministic(t *testing.T) {
	run := func() (int, int, int) {
		net := testNet(t, 13, 200, 100)
		rng := sim.NewRNG(14)
		if err := BuildPopulation(rng.Derive("pop"), net, 60, 4); err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		model := DefaultModel(4)
		model.MeanLifetime = 2 * time.Minute
		d, _ := NewDriver(eng, net, model, rng.Derive("churn"))
		d.Start()
		eng.RunUntil(10 * time.Minute)
		return d.Counts()
	}
	j1, l1, q1 := run()
	j2, l2, q2 := run()
	if j1 != j2 || l1 != l2 || q1 != q2 {
		t.Fatalf("nondeterministic churn: (%d,%d,%d) vs (%d,%d,%d)", j1, l1, q1, j2, l2, q2)
	}
}

// TestCrashFractionValidation: the fraction must be a probability.
func TestCrashFractionValidation(t *testing.T) {
	net := testNet(t, 1, 50, 20)
	eng := sim.NewEngine()
	rng := sim.NewRNG(2)
	for _, f := range []float64{-0.1, 1.5} {
		m := DefaultModel(4)
		m.CrashFraction = f
		if _, err := NewDriver(eng, net, m, rng); err == nil {
			t.Fatalf("crash fraction %v accepted", f)
		}
	}
}

// TestCrashFractionZeroPreservesStream: the crash draw is gated on
// CrashFraction > 0, so the default model consumes exactly the same RNG
// stream as before the crash model existed — run trajectories match a
// driver that never heard of crashing.
func TestCrashFractionZeroPreservesStream(t *testing.T) {
	run := func(frac float64) (joins, leaves, queries, crashes int, edges any) {
		net := testNet(t, 13, 200, 100)
		rng := sim.NewRNG(14)
		if err := BuildPopulation(rng.Derive("pop"), net, 60, 4); err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		model := DefaultModel(4)
		model.MeanLifetime = 2 * time.Minute
		model.CrashFraction = frac
		d, err := NewDriver(eng, net, model, rng.Derive("churn"))
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		eng.RunUntil(10 * time.Minute)
		j, l, q := d.Counts()
		return j, l, q, d.Crashes(), net.SnapshotEdges()
	}
	j0, l0, q0, c0, e0 := run(0)
	if c0 != 0 {
		t.Fatalf("zero fraction crashed %d peers", c0)
	}
	j1, l1, q1, _, e1 := run(0)
	if j0 != j1 || l0 != l1 || q0 != q1 || !reflect.DeepEqual(e0, e1) {
		t.Fatalf("default model not reproducible: (%d,%d,%d) vs (%d,%d,%d)", j0, l0, q0, j1, l1, q1)
	}
}

// TestCrashFractionLeavesDebris: with every departure a crash, dangling
// edges accumulate (no cleanup runs here) and the replacement flow still
// maintains the population.
func TestCrashFractionLeavesDebris(t *testing.T) {
	net := testNet(t, 21, 200, 100)
	rng := sim.NewRNG(22)
	if err := BuildPopulation(rng.Derive("pop"), net, 60, 4); err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	model := DefaultModel(4)
	model.MeanLifetime = 2 * time.Minute
	model.QueriesPerMinute = 0
	model.CrashFraction = 1
	d, err := NewDriver(eng, net, model, rng.Derive("churn"))
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	eng.RunUntil(5 * time.Minute)
	_, leaves, _ := d.Counts()
	if leaves == 0 {
		t.Fatal("no churn happened")
	}
	if d.Crashes() != leaves {
		t.Fatalf("crashes = %d, leaves = %d: fraction 1 must crash every departure", d.Crashes(), leaves)
	}
	if net.NumAlive() != 60 {
		t.Fatalf("population drifted to %d", net.NumAlive())
	}
	if net.Dangling() == 0 {
		t.Fatal("crash-only churn left no dangling edges")
	}
}
