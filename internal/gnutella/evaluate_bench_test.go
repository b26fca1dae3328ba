package gnutella

import (
	"testing"

	"ace/internal/core"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// benchNet builds the §4.1 environment at bench size: a BA physical
// topology, a small-world logical overlay of nPeers, and an optimizer
// with rebuilt trees — the substrate every per-query benchmark floods.
func benchNet(b *testing.B, nPeers, h int) (*overlay.Network, *core.Optimizer) {
	b.Helper()
	rng := sim.NewRNG(1)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(3*nPeers))
	if err != nil {
		b.Fatal(err)
	}
	oracle := physical.NewOracle(phys.Graph)
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), 3*nPeers, nPeers)
	if err != nil {
		b.Fatal(err)
	}
	net, err := overlay.NewNetwork(oracle, attach)
	if err != nil {
		b.Fatal(err)
	}
	if err := overlay.GenerateSmallWorld(rng.Derive("overlay"), net, 8, 0.6); err != nil {
		b.Fatal(err)
	}
	opt, err := core.NewOptimizer(net, core.DefaultConfig(h))
	if err != nil {
		b.Fatal(err)
	}
	opt.RebuildTrees()
	return net, opt
}

func benchResponders(net *overlay.Network, k int) map[overlay.PeerID]bool {
	rng := sim.NewRNG(99)
	alive := net.AlivePeers()
	responders := make(map[overlay.PeerID]bool, k)
	for len(responders) < k {
		responders[alive[rng.Intn(len(alive))]] = true
	}
	return responders
}

// BenchmarkEvaluate measures the closed-form flood evaluator — the inner
// loop of every §4.2 data point — per query, over both forwarders.
func BenchmarkEvaluate(b *testing.B) {
	const ttl = 1 << 20
	net, opt := benchNet(b, 1000, 1)
	alive := net.AlivePeers()
	responders := benchResponders(net, 8)

	b.Run("BlindFlooding/n1000", func(b *testing.B) {
		fwd := core.BlindFlooding{Net: net}
		Evaluate(net, fwd, alive[0], ttl, responders) // warm oracle cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Evaluate(net, fwd, alive[i%len(alive)], ttl, responders)
		}
	})
	b.Run("TreeForwarding/n1000", func(b *testing.B) {
		fwd := core.TreeForwarding{Opt: opt}
		Evaluate(net, fwd, alive[0], ttl, responders)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Evaluate(net, fwd, alive[i%len(alive)], ttl, responders)
		}
	})
}
