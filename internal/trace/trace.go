// Package trace serializes topologies and overlay snapshots to a simple
// line-oriented text format, and synthesizes a "real-world" Gnutella
// overlay snapshot. The paper validated ACE on a DSS Clip2 crawl of the
// Gnutella network; that trace is long gone, so SyntheticGnutella
// reproduces its published structural properties (power-law degree
// distribution per Ripeanu's "Mapping the Gnutella Network") via
// preferential-attachment joining, which is what the consistency check
// in the experiments actually needs.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ace/internal/graph"
	"ace/internal/overlay"
	"ace/internal/sim"
	"ace/internal/topology"
)

// WritePhysical serializes a physical topology.
func WritePhysical(w io.Writer, p *topology.Physical) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ace-topology v1\n")
	fmt.Fprintf(bw, "model %s %d\n", p.Model, p.Degree)
	fmt.Fprintf(bw, "nodes %d\n", p.Graph.N())
	for _, pos := range p.Pos {
		fmt.Fprintf(bw, "pos %g %g\n", pos.X, pos.Y)
	}
	edges := p.Graph.Edges()
	fmt.Fprintf(bw, "edges %d\n", len(edges))
	for _, e := range edges {
		fmt.Fprintf(bw, "edge %d %d %g\n", e.U, e.V, e.W)
	}
	return bw.Flush()
}

// ReadPhysical parses a topology written by WritePhysical.
func ReadPhysical(r io.Reader) (*topology.Physical, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	next := func() ([]string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.ErrUnexpectedEOF
		}
		return strings.Fields(sc.Text()), nil
	}
	f, err := next()
	if err != nil || len(f) != 2 || f[0] != "ace-topology" || f[1] != "v1" {
		return nil, fmt.Errorf("trace: bad header %v: %w", f, errOr(err))
	}
	f, err = next()
	if err != nil || len(f) != 3 || f[0] != "model" {
		return nil, fmt.Errorf("trace: bad model line %v: %w", f, errOr(err))
	}
	model := f[1]
	degree, err := strconv.Atoi(f[2])
	if err != nil {
		return nil, fmt.Errorf("trace: bad model degree: %w", err)
	}
	f, err = next()
	if err != nil || len(f) != 2 || f[0] != "nodes" {
		return nil, fmt.Errorf("trace: bad nodes line %v: %w", f, errOr(err))
	}
	n, err := strconv.Atoi(f[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("trace: bad node count %q", f[1])
	}
	pos := make([]topology.Point, n)
	for i := 0; i < n; i++ {
		f, err = next()
		if err != nil || len(f) != 3 || f[0] != "pos" {
			return nil, fmt.Errorf("trace: bad pos line %v: %w", f, errOr(err))
		}
		if pos[i].X, err = strconv.ParseFloat(f[1], 64); err != nil {
			return nil, fmt.Errorf("trace: bad pos x: %w", err)
		}
		if pos[i].Y, err = strconv.ParseFloat(f[2], 64); err != nil {
			return nil, fmt.Errorf("trace: bad pos y: %w", err)
		}
	}
	f, err = next()
	if err != nil || len(f) != 2 || f[0] != "edges" {
		return nil, fmt.Errorf("trace: bad edges line %v: %w", f, errOr(err))
	}
	m, err := strconv.Atoi(f[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("trace: bad edge count %q", f[1])
	}
	g := graph.New(n)
	for i := 0; i < m; i++ {
		f, err = next()
		if err != nil || len(f) != 4 || f[0] != "edge" {
			return nil, fmt.Errorf("trace: bad edge line %v: %w", f, errOr(err))
		}
		u, err1 := strconv.Atoi(f[1])
		v, err2 := strconv.Atoi(f[2])
		w, err3 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil || err3 != nil || u < 0 || v < 0 || u >= n || v >= n || u == v {
			return nil, fmt.Errorf("trace: bad edge %v", f)
		}
		// A negative delay is a negative cycle in an undirected graph, on
		// which shortest paths do not exist; NaN and ±Inf are no delay.
		if !(w >= 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("trace: edge %v: delay must be finite and non-negative", f)
		}
		g.AddEdge(u, v, w)
	}
	return &topology.Physical{Graph: g, Pos: pos, Model: model, Degree: degree}, nil
}

func errOr(err error) error {
	if err != nil {
		return err
	}
	return fmt.Errorf("malformed line")
}

// WriteOverlay serializes an overlay snapshot: attachments, liveness and
// connections.
func WriteOverlay(w io.Writer, net *overlay.Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ace-overlay v1\n")
	fmt.Fprintf(bw, "slots %d\n", net.N())
	for p := 0; p < net.N(); p++ {
		alive := 0
		if net.Alive(overlay.PeerID(p)) {
			alive = 1
		}
		fmt.Fprintf(bw, "peer %d %d\n", net.Attachment(overlay.PeerID(p)), alive)
	}
	edges := net.SnapshotEdges()
	fmt.Fprintf(bw, "links %d\n", len(edges))
	for _, e := range edges {
		fmt.Fprintf(bw, "link %d %d\n", e.P, e.Q)
	}
	return bw.Flush()
}

// ReadOverlay parses a snapshot written by WriteOverlay; newNet builds
// the network over the caller's physical oracle from the parsed
// attachments.
func ReadOverlay(r io.Reader, newNet func(attach []int) (*overlay.Network, error)) (*overlay.Network, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	next := func() ([]string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.ErrUnexpectedEOF
		}
		return strings.Fields(sc.Text()), nil
	}
	f, err := next()
	if err != nil || len(f) != 2 || f[0] != "ace-overlay" {
		return nil, fmt.Errorf("trace: bad overlay header %v: %w", f, errOr(err))
	}
	f, err = next()
	if err != nil || len(f) != 2 || f[0] != "slots" {
		return nil, fmt.Errorf("trace: bad slots line %v: %w", f, errOr(err))
	}
	n, err := strconv.Atoi(f[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("trace: bad slot count %q", f[1])
	}
	attach := make([]int, n)
	alive := make([]bool, n)
	for i := 0; i < n; i++ {
		f, err = next()
		if err != nil || len(f) != 3 || f[0] != "peer" {
			return nil, fmt.Errorf("trace: bad peer line %v: %w", f, errOr(err))
		}
		if attach[i], err = strconv.Atoi(f[1]); err != nil {
			return nil, fmt.Errorf("trace: bad attachment: %w", err)
		}
		alive[i] = f[2] == "1"
	}
	net, err := newNet(attach)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(0) // join with zero targets: no randomness consumed
	for i, a := range alive {
		if a {
			net.Join(rng, overlay.PeerID(i), 0)
		}
	}
	f, err = next()
	if err != nil || len(f) != 2 || f[0] != "links" {
		return nil, fmt.Errorf("trace: bad links line %v: %w", f, errOr(err))
	}
	m, err := strconv.Atoi(f[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("trace: bad link count %q", f[1])
	}
	for i := 0; i < m; i++ {
		f, err = next()
		if err != nil || len(f) != 3 || f[0] != "link" {
			return nil, fmt.Errorf("trace: bad link line %v: %w", f, errOr(err))
		}
		p, err1 := strconv.Atoi(f[1])
		q, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("trace: bad link %v", f)
		}
		if !net.Connect(overlay.PeerID(p), overlay.PeerID(q)) {
			return nil, fmt.Errorf("trace: unconnectable link %d-%d", p, q)
		}
	}
	return net, nil
}

// SyntheticGnutella wires the network's slots into a Gnutella-like
// overlay snapshot: peers join sequentially and attach their links with
// preferential attachment, yielding the power-law degree distribution
// measured on the real network, with mean degree ≈ c.
func SyntheticGnutella(rng *sim.RNG, net *overlay.Network, c int) error {
	n := net.N()
	if n < 3 {
		return fmt.Errorf("trace: need at least 3 slots, got %d", n)
	}
	if c < 2 {
		return fmt.Errorf("trace: mean degree %d, need >= 2", c)
	}
	for p := 0; p < n; p++ {
		net.Join(rng, overlay.PeerID(p), 0)
	}
	m := c / 2 // links per arrival; mean degree → 2m ≈ c
	if m < 1 {
		m = 1
	}
	// Repeated-endpoint urn for degree-proportional choice.
	urn := []int{0, 1}
	net.Connect(0, 1)
	for p := 2; p < n; p++ {
		links := m
		if c%2 == 1 && p%2 == 1 {
			links++
		}
		for made := 0; made < links; {
			v := urn[rng.Intn(len(urn))]
			if net.Connect(overlay.PeerID(p), overlay.PeerID(v)) {
				urn = append(urn, p, v)
				made++
			} else if net.Degree(overlay.PeerID(p)) >= p {
				break // tiny prefixes can saturate
			}
		}
	}
	return nil
}
