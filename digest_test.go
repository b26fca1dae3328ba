package ace_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ace"
	"ace/internal/fault"
	"ace/internal/overlay"
	"ace/internal/sim"
	"ace/internal/snap"
)

var updateDigests = flag.Bool("update", false, "rewrite "+digestFile+" from this build")

// digestFile holds one golden SHA-256 per trajectory row. A change that
// moves a row on purpose regenerates it with `go test -run
// TestTrajectoryDigests -update .` and names the moved rows.
const digestFile = "testdata/trajectory_digests.txt"

// Trajectory size: ~200 peers churned for ~30 rounds, small enough that
// the whole matrix runs in seconds and large enough that launches,
// splices, stale entries and debris purges all occur.
const (
	digestSeed     = 20261019
	digestPhys     = 800
	digestPeers    = 200
	digestDegree   = 6
	digestRounds   = 30
	digestChurn    = 4
	digestQueries  = 2
	digestCrashDep = 0.5
)

// digestPlan is the faulty rows' plan: every fault the engine reacts to.
var digestPlan = fault.Plan{
	Seed: 11, LossRate: 0.05, DelayJitter: 0.2, ProbeTimeoutRate: 0.05,
	ConnectFailRate: 0.05, UnresponsiveFraction: 0.02,
}

type digestRow struct {
	name   string
	shards int
	depth  int
	plan   fault.Plan
	crash  float64 // share of departures that crash instead of leaving
}

// digestRows is the matrix: shards {0, 1, 8} × h {1, 2} × clean/faulty,
// plus one run whose churn crashes half its departures, leaving debris
// for rounds and floods to meet.
func digestRows() []digestRow {
	var rows []digestRow
	for _, shards := range []int{0, 1, 8} {
		for _, h := range []int{1, 2} {
			rows = append(rows,
				digestRow{name: fmt.Sprintf("shards%d/h%d/clean", shards, h), shards: shards, depth: h},
				digestRow{name: fmt.Sprintf("shards%d/h%d/faulty", shards, h), shards: shards, depth: h, plan: digestPlan})
		}
	}
	return append(rows, digestRow{name: "shards0/h1/crash-churn", depth: 1, crash: digestCrashDep})
}

// TestTrajectoryDigests pins the determinism contract across changes:
// every row's digest covers each round's StepReport (timing, shard-layout
// and repair-path fields zeroed), each round's ACE and blind flood
// results, and the canonical checkpoint bytes after the last round. The
// Go spec lets other architectures fuse x*y+z, which can flip float bits,
// so the golden file is pinned to amd64.
func TestTrajectoryDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are pinned to amd64, not %s", runtime.GOARCH)
	}
	rows := digestRows()
	got := make(map[string]string, len(rows))
	for _, row := range rows {
		var seen digestTally
		got[row.name], seen = runDigest(t, row)
		// A row that meets none of its faults pins nothing about them.
		if row.plan.Active() != (seen.lost > 0) || (row.crash > 0) != (seen.deadLetters > 0 && seen.purged > 0) {
			t.Errorf("%s: %+v does not match the row's fault set-up", row.name, seen)
		}
	}
	if *updateDigests {
		var b strings.Builder
		for _, row := range rows {
			fmt.Fprintf(&b, "%s %s\n", row.name, got[row.name])
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readDigests(t)
	for _, row := range rows {
		w, ok := want[row.name]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest (run with -update)", row.name)
		case w != got[row.name]:
			t.Errorf("%s: digest %s, golden %s", row.name, got[row.name], w)
		}
	}
	if len(want) != len(rows) {
		t.Errorf("golden file has %d rows, the matrix %d", len(want), len(rows))
	}
}

func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// digestTally counts the faults a row's floods and rounds met.
type digestTally struct{ lost, deadLetters, purged int }

// runDigest drives one row much as acesim drives a run — churn, query
// sampling, one optimization step — and hashes what it observes.
func runDigest(t *testing.T, row digestRow) (string, digestTally) {
	t.Helper()
	sys, err := ace.NewSystem(
		ace.WithSeed(digestSeed),
		ace.WithSize(digestPhys, digestPeers),
		ace.WithAvgDegree(digestDegree),
		ace.WithDepth(row.depth),
		ace.WithShards(row.shards),
	)
	if err != nil {
		t.Fatal(err)
	}
	var inj *fault.Injector
	if row.plan.Active() {
		if inj, err = fault.NewInjector(row.plan); err != nil {
			t.Fatal(err)
		}
		sys.Network().SetFaults(inj)
	}
	root := sim.NewRNG(digestSeed)
	churnRNG, qRNG := root.Derive("digest-churn"), root.Derive("digest-queries")
	h := sha256.New()
	var seen digestTally
	for k := 1; k <= digestRounds; k++ {
		digestChurnStep(sys.Network(), churnRNG, row.crash)
		// The floods run before the round repairs what churn broke, so
		// they meet departed tree members and crash debris.
		fmt.Fprintf(h, "round %d:\n", k)
		alive := sys.Network().AlivePeers()
		for i := 0; i < digestQueries; i++ {
			src := alive[qRNG.Intn(len(alive))]
			responders := map[overlay.PeerID]bool{alive[qRNG.Intn(len(alive))]: true}
			for _, q := range []struct {
				label string
				res   ace.QueryResult
			}{{"ace", sys.Query(src, 0, responders)}, {"blind", sys.QueryBlind(src, 0, responders)}} {
				hashFlood(h, q.label, q.res)
				seen.lost += q.res.Lost
				seen.deadLetters += q.res.DeadLetters
			}
		}
		rep := sys.Optimize(1)
		seen.purged += rep.PurgedEdges
		hashNonZero(h, reflect.ValueOf(stripEngineFields(rep)))
	}

	b, err := snap.Encode(&snap.Snapshot{
		Meta: snap.Meta{
			Step: digestRounds, Seed: digestSeed,
			PhysicalNodes: digestPhys, Peers: digestPeers, AvgDegree: digestDegree,
			Depth: int64(row.depth), Shards: int64(row.shards), Policy: int64(ace.PolicyRandom),
			Queries: digestQueries, ChurnPeers: digestChurn,
			Plan: row.plan, FaultOnset: 1, FaultAttached: inj != nil,
			FaultBase: inj.Stats(),
		},
		Net: sys.Network().SnapshotState(),
		Opt: sys.Optimizer().SnapshotState(),
		RNGs: []snap.RNGPos{
			{Name: "system", Pos: sys.RNG().Pos()},
			{Name: "digest-churn", Pos: churnRNG.Pos()},
			{Name: "digest-queries", Pos: qRNG.Pos()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), seen
}

// digestChurnStep mirrors acesim's churnStep: digestChurn random live
// peers depart (each crashing with probability crash), then as many
// slots vacant before the step rejoin, so crash debris survives into the
// next round.
func digestChurnStep(net *overlay.Network, rng *sim.RNG, crash float64) {
	var vacant []overlay.PeerID
	for p := 0; p < net.N(); p++ {
		if !net.Alive(overlay.PeerID(p)) {
			vacant = append(vacant, overlay.PeerID(p))
		}
	}
	left := 0
	for ; left < digestChurn && net.NumAlive() > 2; left++ {
		alive := net.AlivePeers()
		p := alive[rng.Intn(len(alive))]
		if crash > 0 && rng.Float64() < crash {
			net.Crash(p)
		} else {
			net.Leave(p)
		}
	}
	for i := 0; i < left && len(vacant) > 0; i++ {
		j := rng.Intn(len(vacant))
		net.Join(rng, vacant[j], digestDegree)
		vacant = slices.Delete(vacant, j, j+1)
	}
}

// stripEngineFields zeroes what differs between engine configurations
// that produce the same trajectory: wall-clock timings, the shard layout
// and merge shape, and which states took the MST repair path.
func stripEngineFields(r ace.StepReport) ace.StepReport {
	r.RebuildNanos, r.Phase3Nanos, r.RepairNanos, r.MergeNanos = 0, 0, 0, 0
	r.MergeSortNanos = 0
	r.Shards, r.ShardImbalance, r.ProposeImbalance = 0, 0, 0
	r.RepairHits, r.RepairFallbacks, r.AttachOps, r.SwapOps = 0, 0, 0, 0
	return r
}

// hashNonZero writes each non-zero field of a struct as name=value
// (floats in their shortest exact form), so a field added later at zero
// leaves digests alone.
func hashNonZero(h hash.Hash, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			fmt.Fprintf(h, " %s=%v", v.Type().Field(i).Name, f.Interface())
		}
	}
	h.Write([]byte{'\n'})
}

func hashFlood(h hash.Hash, label string, q ace.QueryResult) {
	fmt.Fprintf(h, "%s scope=%d tx=%d dup=%d lost=%d dead=%d traffic=%v first=%v\n",
		label, q.Scope, q.Transmissions, q.Duplicates, q.Lost, q.DeadLetters, q.TrafficCost, q.FirstResponse)
}
