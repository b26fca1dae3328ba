// Command topogen generates physical and logical topologies, reports the
// structural properties the paper relies on (power-law degrees,
// small-world path lengths and clustering), and optionally saves them in
// the trace text format.
//
// Usage:
//
//	topogen -n 10000 -model ba -out phys.topo
//	topogen -n 2000 -model waxman
//	topogen -overlay -n 2000 -c 8
package main

import (
	"flag"
	"fmt"
	"os"

	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
	"ace/internal/trace"
)

func main() {
	n := flag.Int("n", 2000, "node count")
	model := flag.String("model", "ba", "ba | waxman (physical models)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	out := flag.String("out", "", "write the topology to this file")
	overlayMode := flag.Bool("overlay", false, "generate a logical overlay snapshot instead")
	c := flag.Int("c", 8, "overlay average degree (with -overlay)")
	locality := flag.Float64("locality", 1, "BA locality exponent (0 = pure BA)")
	flag.Parse()

	rng := sim.NewRNG(*seed)
	if *overlayMode {
		generateOverlay(rng, *n, *c, *out)
		return
	}

	var phys *topology.Physical
	var err error
	switch *model {
	case "ba":
		spec := topology.DefaultBASpec(*n)
		spec.LocalityExp = *locality
		phys, err = topology.GenerateBA(rng, spec)
	case "waxman":
		phys, err = topology.GenerateWaxman(rng, topology.WaxmanSpec{
			N: *n, Alpha: 0.2, Beta: 0.15, MinDelay: 1, DelayScale: 40,
		})
	default:
		fmt.Fprintf(os.Stderr, "topogen: unknown model %q\n", *model)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	p := topology.Measure(rng.Derive("measure"), phys.Graph, 64)
	fmt.Printf("model=%s nodes=%d edges=%d connected=%v\n", phys.Model, p.Nodes, p.Edges, p.Connected)
	fmt.Printf("degree: mean %.2f max %d, power-law α ≈ %.2f\n", p.MeanDegree, p.MaxDegree, p.PowerLawAlpha)
	fmt.Printf("small world: avg path %.2f hops, clustering %.3f\n", p.AvgPathLen, p.Clustering)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := trace.WritePhysical(f, phys); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func generateOverlay(rng *sim.RNG, n, c int, out string) {
	physN := 2 * n
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(physN))
	if err != nil {
		fatal(err)
	}
	oracle := physical.NewOracle(phys.Graph)
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), physN, n)
	if err != nil {
		fatal(err)
	}
	net, err := overlay.NewNetwork(oracle, attach)
	if err != nil {
		fatal(err)
	}
	if err := overlay.GenerateSmallWorld(rng.Derive("overlay"), net, c, 0.6); err != nil {
		fatal(err)
	}
	fmt.Printf("overlay: %d peers, %d links, avg degree %.2f, clustering %.3f, connected=%v\n",
		net.NumAlive(), net.NumEdges(), net.AverageDegree(),
		net.ClusteringCoefficient(rng.Derive("cc"), 300), net.IsConnected())
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := trace.WriteOverlay(f, net); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "topogen:", err)
	os.Exit(1)
}
