package snap

import (
	"bytes"
	"math"
	"testing"

	"ace/internal/core"
	"ace/internal/fault"
	"ace/internal/graph"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// buildSnapshot runs a small faulted, churned engine for `rounds` rounds
// and captures it at a rebuild boundary — a checkpoint with every
// section populated: dangling debris, host caches, journal tail, fault
// arrays, pending cuts, advanced RNG streams.
func buildSnapshot(t testing.TB, seed int64, rounds int) *Snapshot {
	t.Helper()
	rng := sim.NewRNG(seed)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(400))
	if err != nil {
		t.Fatal(err)
	}
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), 400, 260)
	if err != nil {
		t.Fatal(err)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := overlay.GenerateRandom(rng.Derive("gen"), net, 4); err != nil {
		t.Fatal(err)
	}
	for p := 200; p < 260; p++ {
		net.Leave(overlay.PeerID(p))
	}
	plan := fault.Plan{Seed: 7, ProbeTimeoutRate: 0.2, ConnectFailRate: 0.2, UnresponsiveFraction: 0.2, UnresponsivePeriod: 5}
	inj, err := fault.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	net.SetFaults(inj)
	opt, err := core.NewOptimizer(net, core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	churn := sim.NewRNG(seed + 1)
	round := sim.NewRNG(seed + 2)
	for r := 0; r < rounds; r++ {
		var live, dead []overlay.PeerID
		for p := 0; p < net.N(); p++ {
			if net.Alive(overlay.PeerID(p)) {
				live = append(live, overlay.PeerID(p))
			} else {
				dead = append(dead, overlay.PeerID(p))
			}
		}
		net.Leave(live[churn.Intn(len(live))])
		net.Join(churn, dead[churn.Intn(len(dead))], 3)
		if r%5 == 2 {
			net.Crash(net.AlivePeers()[churn.Intn(net.NumAlive())])
		}
		opt.Round(round)
	}
	opt.RebuildTrees() // checkpoints happen at rebuild boundaries

	return &Snapshot{
		Meta: Meta{
			Step: int64(rounds), Seed: seed,
			PhysicalNodes: 400, Peers: 260, AvgDegree: 4, Depth: 2,
			Plan: plan, FaultAttached: true,
			FaultBase: inj.Stats(),
			Baseline:  Baseline{Traffic: 812.5, Response: math.Inf(1), Scope: 199},
		},
		Net: net.SnapshotState(),
		Opt: opt.SnapshotState(),
		RNGs: []RNGPos{
			{Name: "system", Pos: round.Pos()},
			{Name: "acesim-churn", Pos: churn.Pos()},
			{Name: "acesim-queries", Pos: 12345},
		},
	}
}

// TestEncodeDecodeCanonical pins the codec's core contract: decode is
// the inverse of encode, and re-encoding the decoded snapshot yields
// the identical bytes — the canonicality the kill-recover comparison
// and the dual-slot tie rule both lean on.
func TestEncodeDecodeCanonical(t *testing.T) {
	s := buildSnapshot(t, 42, 25)
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("decode→encode is not the identity on the byte form")
	}

	if got.Meta != s.Meta {
		t.Fatalf("meta diverged:\n%+v\n%+v", got.Meta, s.Meta)
	}
	if got.Net.Version != s.Net.Version || got.Net.JournalBase != s.Net.JournalBase {
		t.Fatal("journal window diverged")
	}
	if len(got.Net.Journal) != len(s.Net.Journal) {
		t.Fatal("journal length diverged")
	}
	if got.Opt.Cursor != s.Opt.Cursor || got.Opt.RoundNum != s.Opt.RoundNum ||
		got.Opt.TotalOverhead != s.Opt.TotalOverhead || got.Opt.Stats != s.Opt.Stats {
		t.Fatal("optimizer counters diverged")
	}
	if pos, ok := got.Pos("acesim-queries"); !ok || pos != 12345 {
		t.Fatalf("rng position lost: %d %v", pos, ok)
	}

	// The decoded state must also pass full semantic validation.
	if _, err := overlay.RestoreNetwork(physical.NewOracle(topoFor(t, 42)), got.Net); err != nil {
		t.Fatalf("decoded net state rejected: %v", err)
	}
}

func topoFor(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	phys, err := topology.GenerateBA(sim.NewRNG(seed).Derive("phys"), topology.DefaultBASpec(400))
	if err != nil {
		t.Fatal(err)
	}
	return phys.Graph
}

// TestEncodeIsCanonicalAcrossRNGOrder checks Encode sorts the RNG
// streams: permuted input, identical bytes.
func TestEncodeIsCanonicalAcrossRNGOrder(t *testing.T) {
	s := buildSnapshot(t, 9, 8)
	a, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	s.RNGs[0], s.RNGs[2] = s.RNGs[2], s.RNGs[0]
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("rng entry order leaked into the byte form")
	}
	s.RNGs = append(s.RNGs, RNGPos{Name: s.RNGs[0].Name})
	if _, err := Encode(s); err == nil {
		t.Fatal("duplicate rng stream accepted")
	}
}

// TestDecodeRejectsDamage flips, truncates, and extends the encoding at
// hostile offsets; every mutation must fail cleanly.
func TestDecodeRejectsDamage(t *testing.T) {
	s := buildSnapshot(t, 3, 6)
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Decode(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Decode([]byte("ACESNAP9")); err == nil {
		t.Fatal("wrong magic accepted")
	}
	for _, cut := range []int{7, 12, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// One flipped bit every ~97 bytes: each must trip a CRC, the magic
	// check, or a structural validation — never decode successfully.
	for off := 0; off < len(data); off += 97 {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
	}
}
