package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"ace/internal/core"
	"ace/internal/gnutella"
	"ace/internal/graph"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
)

// The paper's §3 walkthroughs use small hand-drawn overlays; the OCR of
// the source destroyed the concrete edge costs (Table 1/2 cells and the
// Figure-3 totals 93→48 survive only partially), so these drivers define
// equivalent concrete examples and regenerate the same artifacts — the
// per-step query paths with their costs, the totals, and the duplicate
// counts — mechanically from the implementation. EXPERIMENTS.md records
// the correspondence.

// peerName renders peer ids as the paper's letters.
func peerName(p overlay.PeerID) string {
	if p >= 0 && int(p) < 26 {
		return string(rune('A' + int(p)))
	}
	return fmt.Sprintf("P%d", p)
}

// buildExample wires an overlay over a physical line: peer i attaches to
// position pos[i], so Cost(p,q) = |pos[p]−pos[q]|.
func buildExample(pos []int, edges [][2]int) (*overlay.Network, error) {
	maxNode := 0
	for _, a := range pos {
		if a > maxNode {
			maxNode = a
		}
	}
	g := graph.New(maxNode + 1)
	for i := 0; i < maxNode; i++ {
		g.AddEdge(i, i+1, 1)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(g), pos)
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(0)
	for p := 0; p < net.N(); p++ {
		net.Join(rng, overlay.PeerID(p), 0)
	}
	for _, e := range edges {
		if !net.Connect(overlay.PeerID(e[0]), overlay.PeerID(e[1])) {
			return nil, fmt.Errorf("experiments: bad example edge %v", e)
		}
	}
	return net, nil
}

// Fig3Result is the Phase-2 demonstration of Figure 3: the traffic a
// single peer's flood costs before and after switching to its multicast
// tree.
type Fig3Result struct {
	Source        string
	BlindTraffic  float64
	TreeTraffic   float64
	BlindHops     []gnutella.Hop
	TreeHops      []gnutella.Hop
	FloodingSet   []string
	NonFlooding   []string
	ScopeBlind    int
	ScopeTree     int
	Net           *overlay.Network
	TreeForwarder core.TreeForwarding
}

// Figure3 reproduces the §3.3 Phase-2 example: peer A floods to direct
// neighbors B, C, D; after building the MST over its 1-closure it sends
// only along the tree and the total traffic drops while the scope stays
// the same.
func Figure3() (*Fig3Result, error) {
	// A@0, B@5, C@6, D@11; overlay A-B, A-C, A-D, B-C, C-D.
	// Costs: AB=5, AC=6, AD=11, BC=1, CD=5.
	net, err := buildExample([]int{0, 5, 6, 11}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3}})
	if err != nil {
		return nil, err
	}
	opt, err := core.NewOptimizer(net, core.DefaultConfig(1))
	if err != nil {
		return nil, err
	}
	opt.RebuildTrees()
	blind, blindHops := gnutella.EvaluateTrace(net, core.BlindFlooding{Net: net}, 0, gnutella.DefaultTTL, nil)
	fwd := core.TreeForwarding{Opt: opt}
	tree, treeHops := gnutella.EvaluateTrace(net, fwd, 0, gnutella.DefaultTTL, nil)

	res := &Fig3Result{
		Source:        "A",
		BlindTraffic:  blind.TrafficCost,
		TreeTraffic:   tree.TrafficCost,
		BlindHops:     blindHops,
		TreeHops:      treeHops,
		ScopeBlind:    blind.Scope,
		ScopeTree:     tree.Scope,
		Net:           net,
		TreeForwarder: fwd,
	}
	for _, q := range opt.FloodingNeighbors(0) {
		res.FloodingSet = append(res.FloodingSet, peerName(q))
	}
	for _, q := range opt.State(0).NonFlooding {
		res.NonFlooding = append(res.NonFlooding, peerName(q))
	}
	return res, nil
}

// WalkthroughResult carries the Table 1 / Table 2 reproduction: the same
// 5-peer overlay queried from E with trees built in 1- and 2-neighbor
// closures, plus the blind-flooding baseline the paper compares against.
type WalkthroughResult struct {
	Blind, H1, H2 gnutella.QueryResult
	Table1        QueryPathTable
	Table2        QueryPathTable
}

// QueryPathTable is one of the paper's query-path tables: rows of
// (forwarder → targets, cost) plus the total.
type QueryPathTable struct {
	ID    string
	Title string
	Rows  []QueryPathRow
	Total float64
}

// QueryPathRow is one forwarding step.
type QueryPathRow struct {
	From string
	To   []string
	Cost float64
}

// Render formats the table as the paper lays it out.
func (t QueryPathTable) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "%-6s%-12s%s\n", "From", "To", "Cost")
	fmt.Fprintf(&b, "%-6s%-12s%s\n", "----", "--", "----")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-6s%-12s%g\n", r.From, strings.Join(r.To, ", "), r.Cost)
	}
	fmt.Fprintf(&b, "Total cost: %g\n", t.Total)
	return b.String()
}

// walkthroughNet is the Figure-5 style example: five peers A..E.
// Attachments: A@0, B@1, C@10, D@11, E@20 over a physical line, so
// costs: AB=1, AC=10, AD=11, AE=20, BC=9, BD=10, BE=19, CD=1, CE=10,
// DE=9. Overlay edges: A-B, A-C, B-D, C-D, C-E, D-E.
func walkthroughNet() (*overlay.Network, error) {
	return buildExample(
		[]int{0, 1, 10, 11, 20},
		[][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}},
	)
}

// Walkthrough reproduces §3.4's Figure 5/6 examples and Tables 1–2: the
// query from E routed over trees built in 1- and 2-neighbor closures,
// with per-step paths, costs, totals and duplicate counts.
func Walkthrough() (*WalkthroughResult, error) {
	res := &WalkthroughResult{}
	for _, h := range []int{1, 2} {
		net, err := walkthroughNet()
		if err != nil {
			return nil, err
		}
		opt, err := core.NewOptimizer(net, core.DefaultConfig(h))
		if err != nil {
			return nil, err
		}
		opt.RebuildTrees()
		if h == 1 {
			res.Blind = gnutella.Evaluate(net, core.BlindFlooding{Net: net}, 4, gnutella.DefaultTTL, nil)
		}
		qr, hops := gnutella.EvaluateTrace(net, core.TreeForwarding{Opt: opt}, 4, gnutella.DefaultTTL, nil)
		tbl := hopsToTable(hops)
		tbl.ID = fmt.Sprintf("table%d", h)
		tbl.Title = fmt.Sprintf("Query paths and costs on overlay trees built in %d-neighbor closure", h)
		switch h {
		case 1:
			res.H1 = qr
			res.Table1 = tbl
		case 2:
			res.H2 = qr
			res.Table2 = tbl
		}
	}
	return res, nil
}

// hopsToTable groups the transmission trace by forwarder in send order,
// the paper's table layout.
func hopsToTable(hops []gnutella.Hop) QueryPathTable {
	type key struct {
		from overlay.PeerID
		at   float64
	}
	order := []key{}
	grouped := map[key]*QueryPathRow{}
	total := 0.0
	for _, h := range hops {
		k := key{h.From, h.SentAt}
		row, ok := grouped[k]
		if !ok {
			row = &QueryPathRow{From: peerName(h.From)}
			grouped[k] = row
			order = append(order, k)
		}
		name := peerName(h.To)
		// A relay may send the same target two copies (one per tree it
		// serves); render that as one entry with a multiplier.
		merged := false
		for i, existing := range row.To {
			if existing == name {
				row.To[i] = name + "×2"
				merged = true
				break
			} else if existing == name+"×2" {
				row.To[i] = name + "×3"
				merged = true
				break
			}
		}
		if !merged {
			row.To = append(row.To, name)
		}
		row.Cost += h.Cost
		total += h.Cost
	}
	slices.SortStableFunc(order, func(a, b key) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.from, b.from)
	})
	tbl := QueryPathTable{Total: total}
	for _, k := range order {
		tbl.Rows = append(tbl.Rows, *grouped[k])
	}
	return tbl
}
