package snap

import (
	"fmt"
	"testing"

	"ace/internal/core"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// benchSnapshot synthesizes a checkpoint at population n with realistic
// density: average overlay degree 6, full fault arrays, a few hundred
// journal events and a sprinkling of churn debris. Building a real
// optimizer trajectory at 100k peers would dominate the benchmark
// setup; the codec only sees the flattened state, so synthesizing the
// optimizer section keeps setup linear.
var benchSnapshots = map[int]*Snapshot{}

func benchSnapshot(b *testing.B, n int) *Snapshot {
	b.Helper()
	if s, ok := benchSnapshots[n]; ok {
		return s
	}
	rng := sim.NewRNG(int64(n) + 7)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(n))
	if err != nil {
		b.Fatal(err)
	}
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), n, n)
	if err != nil {
		b.Fatal(err)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		b.Fatal(err)
	}
	if err := overlay.GenerateRandom(rng.Derive("gen"), net, 6); err != nil {
		b.Fatal(err)
	}
	churn := rng.Derive("churn")
	for i := 0; i < 200; i++ {
		alive := net.AlivePeers()
		p := alive[churn.Intn(len(alive))]
		if i%4 == 0 {
			net.Crash(p)
		} else {
			net.Leave(p)
		}
	}

	opt := &core.OptState{
		Cursor: net.Version(), Synced: true,
		Stats:    core.RebuildStats{Full: 1, Incremental: 240, PeersRebuilt: 31 * n},
		RoundNum: 241, TotalOverhead: 1.5e7,
		StaleFor:   make([]int32, net.N()),
		Excluded:   make([]bool, net.N()),
		DialFails:  make([]uint8, net.N()),
		BlackExp:   make([]uint8, net.N()),
		BlackUntil: make([]int32, net.N()),
	}
	for p := 0; p < net.N(); p += 17 {
		opt.StaleFor[p] = int32(p % 3)
		opt.BlackUntil[p] = int32(250 + p%16)
		opt.BlackExp[p] = uint8(p % 4)
	}

	s := &Snapshot{
		Meta: Meta{Step: 241, Seed: int64(n) + 7, PhysicalNodes: int64(n), Peers: int64(n), AvgDegree: 6, Depth: 1},
		Net:  net.SnapshotState(),
		Opt:  opt,
		RNGs: []RNGPos{{Name: "system", Pos: 99991}, {Name: "acesim-churn", Pos: 1283}, {Name: "acesim-queries", Pos: 771231}},
	}
	benchSnapshots[n] = s
	return s
}

func BenchmarkEncode(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			s := benchSnapshot(b, n)
			data, err := Encode(s)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Encode(s); err != nil {
					b.Fatal(err)
				}
			}
			// After the loop: ResetTimer clears extra metrics, so the
			// on-disk size row must land once timing is done.
			b.ReportMetric(float64(len(data)), "bytes/snapshot")
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			data, err := Encode(benchSnapshot(b, n))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
