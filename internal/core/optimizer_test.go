package core

import (
	"slices"
	"testing"

	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
	"ace/internal/topology"
)

// randomNet builds a BA-physical, random-overlay network for integration
// tests.
func randomNet(t *testing.T, seed int64, physN, peers int, avgDeg float64) *overlay.Network {
	t.Helper()
	rng := sim.NewRNG(seed)
	phys, err := topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(physN))
	if err != nil {
		t.Fatal(err)
	}
	attach, err := overlay.RandomAttachments(rng.Derive("at"), physN, peers)
	if err != nil {
		t.Fatal(err)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(phys.Graph), attach)
	if err != nil {
		t.Fatal(err)
	}
	if err := overlay.GenerateRandom(rng.Derive("gen"), net, avgDeg); err != nil {
		t.Fatal(err)
	}
	return net
}

// avgTreeEdgeCost reports the mean edge cost across every peer's
// multicast tree — the quantity Phase 3's rewiring directly improves
// (trees over closures of nearer neighbors have cheaper edges).
func avgTreeEdgeCost(o *Optimizer) float64 {
	var sum float64
	count := 0
	for _, p := range o.net.AlivePeers() {
		st := o.State(p)
		if st == nil {
			continue
		}
		for _, u := range st.Closure {
			for _, v := range st.TreeNeighbors(u) {
				if u < v {
					sum += o.net.Cost(u, v)
					count++
				}
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

func TestRoundImprovesTreesAllPolicies(t *testing.T) {
	for _, policy := range []Policy{PolicyRandom, PolicyNaive, PolicyClosest} {
		t.Run(policy.String(), func(t *testing.T) {
			net := randomNet(t, 41, 400, 200, 6)
			cfg := DefaultConfig(1)
			cfg.Policy = policy
			o, err := NewOptimizer(net, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := sim.NewRNG(42)
			o.RebuildTrees()
			before := avgTreeEdgeCost(o)
			for i := 0; i < 15; i++ {
				o.Round(rng)
			}
			o.RebuildTrees()
			after := avgTreeEdgeCost(o)
			if after >= before {
				t.Fatalf("%s: mean tree edge cost %v did not drop from %v", policy, after, before)
			}
			if !net.IsConnected() {
				t.Fatal("optimization disconnected the overlay")
			}
			// Replacements trade link for link; tentative links are
			// bounded by MaxPending, so density must not explode.
			if d := net.AverageDegree(); d < 3 || d > 14 {
				t.Fatalf("average degree drifted to %v", d)
			}
		})
	}
}

func TestRoundDeterministic(t *testing.T) {
	run := func() []overlay.Edge {
		net := randomNet(t, 43, 300, 150, 6)
		o, _ := NewOptimizer(net, DefaultConfig(2))
		rng := sim.NewRNG(44)
		for i := 0; i < 8; i++ {
			o.Round(rng)
		}
		return net.SnapshotEdges()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("edge counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDeeperClosureSeesMore(t *testing.T) {
	net := randomNet(t, 45, 600, 300, 8)
	sizes := make([]float64, 0, 3)
	for _, h := range []int{1, 2, 3} {
		o, _ := NewOptimizer(net, DefaultConfig(h))
		o.RebuildTrees()
		var total, pairs float64
		for _, p := range net.AlivePeers() {
			st := o.State(p)
			total += float64(len(st.Closure))
			pairs += float64(st.KnownPairs)
		}
		if pairs <= total {
			t.Fatalf("h=%d: knowledge not quadratic in closure (%v pairs, %v nodes)", h, pairs, total)
		}
		sizes = append(sizes, total)
	}
	if !(sizes[0] < sizes[1] && sizes[1] < sizes[2]) {
		t.Fatalf("closures not growing with depth: %v", sizes)
	}
}

func TestOverheadIncreasesWithDepth(t *testing.T) {
	overhead := func(h int) float64 {
		net := randomNet(t, 47, 400, 200, 6)
		o, _ := NewOptimizer(net, DefaultConfig(h))
		return o.RebuildTrees()
	}
	o1, o2, o3 := overhead(1), overhead(2), overhead(3)
	if !(o1 < o2 && o2 < o3) {
		t.Fatalf("overhead not increasing with depth: h1=%v h2=%v h3=%v", o1, o2, o3)
	}
}

func TestTotalOverheadAccumulates(t *testing.T) {
	net := randomNet(t, 48, 200, 100, 6)
	o, _ := NewOptimizer(net, DefaultConfig(1))
	rng := sim.NewRNG(49)
	o.Round(rng)
	after1 := o.TotalOverhead()
	if after1 <= 0 {
		t.Fatal("overhead should be positive after a round")
	}
	o.Round(rng)
	if o.TotalOverhead() <= after1 {
		t.Fatal("overhead should accumulate across rounds")
	}
}

// forward is the one-off form of ForwardInto: a fresh scratch, a fresh
// output slice, and p's position within servingAdj looked up from the
// tree instead of carried by a Send.
func forward(fwd Forwarder, src, p, from, serving overlay.PeerID, servingAdj *TreeAdj, covered *CoveredSet, first bool) []Send {
	pPos := int32(-1)
	if serving != NoTree && servingAdj != nil {
		pPos = int32(servingAdj.pos(p))
	}
	return fwd.ForwardInto(new(FloodScratch), nil, src, p, from, serving, servingAdj, pPos, covered, first)
}

func sendsEqual(t *testing.T, got []Send, want []Send) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sends = %v, want %v", got, want)
	}
	for i := range want {
		if got[i].To != want[i].To || got[i].Tree != want[i].Tree {
			t.Fatalf("sends = %v, want %v", got, want)
		}
	}
}

func TestTreeForwardingSourceLaunchesOwnTree(t *testing.T) {
	net := starChord(t)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	fwd := TreeForwarding{Opt: o}
	// tree(0) over the complete closure graph: 1-2(1), 2-3(1), 0-1(10).
	// The source multicasts over its own tree: only peer 1, tagged 0.
	sends := forward(fwd, 0, 0, -1, NoTree, nil, nil, true)
	sendsEqual(t, sends, []Send{{To: 1, Tree: 0}})
	// The launch carries the full tree and claims the whole closure.
	if sends[0].Adj.Len() != 4 {
		t.Fatalf("launch adj = %v, want the full 4-node tree", sends[0].Adj)
	}
	for _, q := range []overlay.PeerID{0, 1, 2, 3} {
		if !sends[0].Covered.Has(q) {
			t.Fatalf("covered set missing %d", q)
		}
	}
}

func TestTreeForwardingRelayContinuesServingTree(t *testing.T) {
	net := starChord(t)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	fwd := TreeForwarding{Opt: o}
	src := forward(fwd, 0, 0, -1, NoTree, nil, nil, true)
	adj, cs := src[0].Adj, src[0].Covered

	// Relay 1, arriving from 0 on tree 0: continue tree(0) to 2. Its own
	// closure {1,0,2} is fully covered, so no launch.
	sendsEqual(t, forward(fwd, 0, 1, 0, 0, adj, cs, true), []Send{{To: 2, Tree: 0}})
	// Relay 2 continues to 3; relay 3 is a leaf with nothing new.
	sendsEqual(t, forward(fwd, 0, 2, 1, 0, adj, cs, true), []Send{{To: 3, Tree: 0}})
	sendsEqual(t, forward(fwd, 0, 3, 2, 0, adj, cs, true), nil)
}

// TestTreeAdjDeadEnd pins the leaf test the flood kernel settles
// duplicates with: on the chain tree 0-1-2-3, a member is a dead end for
// a sender exactly when the sender is its only tree neighbor. Over every
// tree of an optimized random overlay, DeadEnd must agree with what a
// non-first copy continuing the tree actually forwards.
func TestTreeAdjDeadEnd(t *testing.T) {
	net := starChord(t)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	adj := o.State(0).FullTree() // chain 0-1-2-3
	for _, c := range []struct {
		member, from overlay.PeerID
		want         bool
	}{
		{0, 1, true}, {0, 2, false},
		{1, 0, false}, {1, 2, false},
		{3, 2, true}, {3, 1, false},
	} {
		if got := adj.DeadEnd(int32(adj.pos(c.member)), c.from); got != c.want {
			t.Fatalf("DeadEnd(%d from %d) = %v, want %v", c.member, c.from, got, c.want)
		}
	}

	net = randomNet(t, 61, 300, 120, 5)
	o = newOpt(t, net, 2)
	rng := sim.NewRNG(62)
	for i := 0; i < 3; i++ {
		o.Round(rng)
	}
	o.RebuildTrees()
	fwd := TreeForwarding{Opt: o}
	var ends, relays int
	for _, owner := range net.AlivePeers() {
		adj := o.State(owner).FullTree()
		for pos, p := range adj.nodes {
			if p == owner {
				continue // a peer never continues its own tag
			}
			// Every tree neighbor as the sender, plus the owner, which
			// need not be one.
			for _, from := range append(slices.Clone(adj.Neighbors(p)), owner) {
				dead := adj.DeadEnd(int32(pos), from)
				sends := fwd.ForwardInto(new(FloodScratch), nil, owner, p, from, owner, adj, int32(pos), nil, false)
				if dead != (len(sends) == 0) {
					t.Fatalf("tree %d: DeadEnd(%d from %d) = %v, but a duplicate forwards %d sends", owner, p, from, dead, len(sends))
				}
				if dead {
					ends++
				} else {
					relays++
				}
			}
		}
	}
	if ends == 0 || relays == 0 {
		t.Fatalf("sweep exercised %d dead ends and %d relays; want both", ends, relays)
	}
}

func TestTreeForwardingLaunchCoversUncoveredNeighbor(t *testing.T) {
	// Chain overlay 0-1-2 at h=1: 2 is outside 0's closure. Relay 1 must
	// launch its own tree (pruned to peer 2) so the query escapes.
	net := lineNet(t, []int{0, 1, 2})
	net.Connect(0, 1)
	net.Connect(1, 2)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	fwd := TreeForwarding{Opt: o}
	src := forward(fwd, 0, 0, -1, NoTree, nil, nil, true)
	sendsEqual(t, src, []Send{{To: 1, Tree: 0}})

	sends := forward(fwd, 0, 1, 0, 0, src[0].Adj, src[0].Covered, true)
	sendsEqual(t, sends, []Send{{To: 2, Tree: 1}})
	if !sends[0].Covered.Has(2) {
		t.Fatal("launch did not extend the covered set")
	}
}

func TestTreeForwardingElectionSuppressesRedundantLaunch(t *testing.T) {
	// Chain 0-1-2-3-4, h=2. Source 0's tree covers {0,1,2}. Peer 3 is
	// uncovered; relay 1 sees it (closure {1,0,2,3}) but peer 2 is
	// closer to 3, so 1 defers (election) while 2 launches toward 3.
	net := lineNet(t, []int{0, 1, 2, 3, 4})
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(2, 3)
	net.Connect(3, 4)
	o := newOpt(t, net, 2)
	o.RebuildTrees()
	fwd := TreeForwarding{Opt: o}
	src := forward(fwd, 0, 0, -1, NoTree, nil, nil, true)
	adj, cs := src[0].Adj, src[0].Covered

	got := forward(fwd, 0, 1, 0, 0, adj, cs, true)
	sendsEqual(t, got, []Send{{To: 2, Tree: 0}}) // continuation only, no launch

	got = forward(fwd, 0, 2, 1, 0, adj, cs, true)
	sendsEqual(t, got, []Send{{To: 3, Tree: 2}}) // pruned launch toward 3
}

func TestTreeForwardingFallsBackToBlind(t *testing.T) {
	net := starChord(t)
	o := newOpt(t, net, 1)
	// No RebuildTrees: no peer has state → blind flooding.
	fwd := TreeForwarding{Opt: o}
	if got := forward(fwd, 0, 0, -1, NoTree, nil, nil, true); len(got) != 3 {
		t.Fatalf("stateless sends = %v, want all 3 neighbors", got)
	}
	for _, snd := range forward(fwd, 0, 2, 0, NoTree, nil, nil, true) {
		if snd.To == 0 {
			t.Fatal("sends must exclude the arrival link")
		}
		if snd.Tree != NoTree {
			t.Fatal("blind fallback must not tag a tree")
		}
	}
	if got := forward(fwd, 0, 2, 0, NoTree, nil, nil, false); got != nil {
		t.Fatalf("blind duplicate copy forwarded: %v", got)
	}
}

func TestTreeForwardingSplicesAroundDeadTargets(t *testing.T) {
	// tree(0) is the chain 0-1-2-3. When relay 1 leaves between
	// exchanges, 0 splices around it and forwards directly to 1's tree
	// child 2 — the relay holds the full tree, so the multicast
	// survives churn.
	net := starChord(t)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	net.Leave(1)
	fwd := TreeForwarding{Opt: o}
	got := forward(fwd, 0, 0, -1, NoTree, nil, nil, true)
	sendsEqual(t, got, []Send{{To: 2, Tree: 0}})

	// With both 1 and 2 gone, the splice reaches through to 3.
	net.Leave(2)
	got = forward(fwd, 0, 0, -1, NoTree, nil, nil, true)
	sendsEqual(t, got, []Send{{To: 3, Tree: 0}})

	// With the whole subtree gone there is nothing left to send.
	net.Leave(3)
	if got := forward(fwd, 0, 0, -1, NoTree, nil, nil, true); len(got) != 0 {
		t.Fatalf("sends = %v, want empty when all targets left", got)
	}
}

func TestTreeForwardingUsesNonOverlayTreeLinks(t *testing.T) {
	// Tree links need not be overlay connections: cutting the overlay
	// edge 0-1 must not stop 0 forwarding along its tree pair to 1.
	net := starChord(t)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	net.Disconnect(0, 1)
	fwd := TreeForwarding{Opt: o}
	sendsEqual(t, forward(fwd, 0, 0, -1, NoTree, nil, nil, true), []Send{{To: 1, Tree: 0}})
}

func TestTreeForwardingLaunchMayReturnThroughSender(t *testing.T) {
	// A launch is a fresh multicast and may flow back through the peer
	// the query arrived from when that peer is on the launched tree.
	// Chain 0-1-2 with 1 in the middle: 1's own tree is 1-0, 1-2; a
	// query from 2 reaches 1, whose launch toward 0 goes "back" via the
	// tree pair 1-0 — but 0 is uncovered only from 2's perspective.
	net := lineNet(t, []int{0, 1, 2})
	net.Connect(0, 1)
	net.Connect(1, 2)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	fwd := TreeForwarding{Opt: o}
	src := forward(fwd, 2, 2, -1, NoTree, nil, nil, true)
	sendsEqual(t, src, []Send{{To: 1, Tree: 2}})
	sends := forward(fwd, 2, 1, 2, 2, src[0].Adj, src[0].Covered, true)
	sendsEqual(t, sends, []Send{{To: 0, Tree: 1}})
}

func TestBlindFloodingForward(t *testing.T) {
	net := starChord(t)
	fwd := BlindFlooding{Net: net}
	got := forward(fwd, 0, 2, 0, NoTree, nil, nil, true)
	// 2's neighbors: 0, 1, 3; minus arrival 0.
	sendsEqual(t, got, []Send{{To: 1, Tree: NoTree}, {To: 3, Tree: NoTree}})
}

func TestNaivePolicyTargetsMostExpensive(t *testing.T) {
	// Peer 0 at position 0 with neighbors at 1 (cheap, flooding), 50 and
	// 200 (non-flooding). The naive policy must aim at the 200 one.
	net := lineNet(t, []int{0, 1, 50, 200, 210})
	net.Connect(0, 1)
	net.Connect(0, 2)
	net.Connect(0, 3)
	net.Connect(1, 2) // lets MST reach 2 without 0—2
	net.Connect(2, 3) // lets MST reach 3 without 0—3
	net.Connect(3, 4) // candidate pool for peer 3: {4}
	net.Connect(2, 4)

	cfg := DefaultConfig(1)
	cfg.Policy = PolicyNaive
	o, err := NewOptimizer(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.RebuildTrees()
	st := o.State(0)
	if len(st.NonFlooding) != 2 {
		t.Fatalf("precondition: nonflooding(0) = %v, want two entries", st.NonFlooding)
	}
	var rep StepReport
	o.phase3Serial(50, []overlay.PeerID{0}, &rep)
	// Candidates of worst neighbor 3 are {2? already neighbor, 4}. Cost
	// 0—4 = 210 > 200: no improvement, keep.
	if net.HasEdge(0, 3) == false {
		t.Fatal("naive policy replaced despite no cheaper candidate")
	}
	// Now make candidate 4 cheap and retry.
	net2 := lineNet(t, []int{0, 1, 50, 200, 30})
	net2.Connect(0, 1)
	net2.Connect(0, 2)
	net2.Connect(0, 3)
	net2.Connect(1, 2)
	net2.Connect(2, 3)
	net2.Connect(3, 4)
	net2.Connect(2, 4)
	o2, _ := NewOptimizer(net2, cfg)
	o2.RebuildTrees()
	rep = StepReport{}
	o2.phase3Serial(51, []overlay.PeerID{0}, &rep)
	if rep.Replacements != 1 || net2.HasEdge(0, 3) || !net2.HasEdge(0, 4) {
		t.Fatalf("naive policy should replace 3 with 4: %+v", rep)
	}
}

// TestSerialRejectsSelfVoidedProposal pins what proposing before
// applying means on the serial engine: a peer proposes for all its
// non-flooding neighbors against the network as it stands, then applies
// the proposals in order, so its earlier rewire can void its later
// proposal. A(0) has non-flooding neighbors B1(2) and B2(3), and H(4)
// is the only candidate either offers; Figure 4(b) replaces whichever B
// comes first by H, and applyOne must turn the second proposal down
// because A—H already exists. Both probes still count.
func TestSerialRejectsSelfVoidedProposal(t *testing.T) {
	// A=0 with flooding anchor F=1 beside it; B1=100, B2=101, H=50.
	net := lineNet(t, []int{0, 1, 100, 101, 50})
	net.Connect(0, 1) // A—F
	net.Connect(0, 2) // A—B1
	net.Connect(0, 3) // A—B2
	net.Connect(1, 2) // F—B1 and B1—B2 take both Bs off A's tree
	net.Connect(2, 3)
	net.Connect(2, 4) // B1—H
	net.Connect(3, 4) // B2—H
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	if nf := o.State(0).NonFlooding; !slices.Equal(nf, []overlay.PeerID{2, 3}) {
		t.Fatalf("precondition: nonflooding(A) = %v, want [2 3]", nf)
	}
	// Find a round seed whose draws make both proposals pick H.
	sh := o.ensureShards(1)[0]
	base := uint64(1)
	for ; ; base++ {
		sh.props = sh.props[:0]
		o.proposePeer(0, base, sh)
		if len(sh.props) == 2 && sh.props[0].h == 4 && sh.props[1].h == 4 {
			break
		}
		if base == 1000 {
			t.Fatal("no seed in 1000 makes A propose H for both Bs")
		}
	}
	edges := net.NumEdges()
	var rep StepReport
	o.phase3Serial(base, []overlay.PeerID{0}, &rep)
	if rep.Probes != 2 || rep.Replacements != 1 || rep.KeptNew != 0 {
		t.Fatalf("report = %+v, want 2 probes and 1 replacement", rep)
	}
	if net.HasEdge(0, 2) || !net.HasEdge(0, 3) || !net.HasEdge(0, 4) {
		t.Fatalf("want A—B1 replaced by A—H and A—B2 kept; A's neighbors %v", net.Neighbors(0))
	}
	if net.NumEdges() != edges || net.Degree(0) != 3 {
		t.Fatalf("edges %d → %d, deg(A) %d: the voided proposal changed the overlay", edges, net.NumEdges(), net.Degree(0))
	}
}

func TestClosestPolicyProbesAllCandidates(t *testing.T) {
	net := randomNet(t, 52, 300, 150, 8)
	cfg := DefaultConfig(1)
	cfg.Policy = PolicyClosest
	o, _ := NewOptimizer(net, cfg)
	rng := sim.NewRNG(53)
	rep := o.Round(rng)
	// Closest probes every candidate of every non-flooding neighbor —
	// far more probes than peers.
	if rep.Probes <= net.NumAlive() {
		t.Fatalf("closest policy probed only %d times for %d peers", rep.Probes, net.NumAlive())
	}
}

func TestRoundSkipsDeadAndStatelessPeers(t *testing.T) {
	net := starChord(t)
	o := newOpt(t, net, 1)
	net.Leave(3)
	rng := sim.NewRNG(54)
	// Must not panic with a dead peer and missing states.
	o.Round(rng)
}

func TestPendingExperimentExpires(t *testing.T) {
	// Set up a case (c) whose b—h link never vanishes: after PendingTTL
	// rounds the tentative a—h link must be abandoned.
	net := figure4Net(t, 50, 90, 0)
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	var rep StepReport
	figure4(o, 0, 1, 2, &rep)
	if rep.KeptNew != 1 || !net.HasEdge(0, 2) {
		t.Fatalf("precondition: %+v", rep)
	}
	expired := false
	for i := 0; i < PendingTTL+1; i++ {
		rep = StepReport{}
		o.executePendingCuts(&rep)
		if rep.Abandoned > 0 {
			expired = true
			break
		}
	}
	if !expired {
		t.Fatal("tentative link never expired")
	}
	if net.HasEdge(0, 2) {
		t.Fatal("abandoned tentative link still present")
	}
	if !net.HasEdge(0, 1) {
		t.Fatal("original link must survive an abandoned experiment")
	}
	if o.PendingCuts() != 0 {
		t.Fatal("pending entry not cleared")
	}
}

func TestMaxPendingCapsExperiments(t *testing.T) {
	// Peer 0 with many non-flooding neighbors that all trigger case (c):
	// only MaxPending tentative links may be outstanding.
	// Build: A@50 with flooding anchor F@51; non-flooding neighbors at
	// 90, 92, 94, 96, each with a candidate on the far side (near 0).
	attach := []int{50, 51, 90, 92, 94, 96, 0, 2, 4, 6}
	net := lineNet(t, attach)
	net.Connect(0, 1) // A—F anchor
	for i := 2; i <= 5; i++ {
		net.Connect(0, overlay.PeerID(i))                             // A—Bi
		net.Connect(1, overlay.PeerID(i))                             // F—Bi keeps Bi off A's tree
		net.Connect(overlay.PeerID(i), overlay.PeerID(i+4))           // Bi—Hi
		net.Connect(overlay.PeerID(i+4), overlay.PeerID((i-2+1)%4+6)) // keep Hi degree ≥ 2
	}
	o := newOpt(t, net, 1)
	o.RebuildTrees()
	st := o.State(0)
	if len(st.NonFlooding) < 3 {
		t.Skipf("fixture produced only %d non-flooding neighbors", len(st.NonFlooding))
	}
	var rep StepReport
	for _, b := range st.NonFlooding {
		for _, h := range o.candidatesInto(nil, 0, b, &rep.BlacklistHits) {
			figure4(o, 0, b, h, &rep)
		}
	}
	if got := len(o.pending[0]); got > MaxPending {
		t.Fatalf("pending experiments %d exceed MaxPending %d", got, MaxPending)
	}
}

func TestMinDegreeMaintenance(t *testing.T) {
	net := randomNet(t, 71, 200, 100, 6)
	o := newOpt(t, net, 1)
	// Strip a peer down to zero links, then run a round: maintenance
	// must reconnect it.
	victim := net.AlivePeers()[0]
	for _, q := range net.Neighbors(victim) {
		net.Disconnect(victim, q)
	}
	rep := o.Round(sim.NewRNG(72))
	if rep.Repairs == 0 {
		t.Fatal("no repairs reported")
	}
	if net.Degree(victim) < minDegree {
		t.Fatalf("victim degree %d below the minimum degree %d", net.Degree(victim), minDegree)
	}
}

func TestAOTOConfig(t *testing.T) {
	cfg := AOTOConfig()
	if cfg.Policy != PolicyNaive || cfg.Depth != 1 {
		t.Fatalf("AOTO config: %+v", cfg)
	}
	net := randomNet(t, 73, 200, 100, 6)
	o, err := NewOptimizer(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.RebuildTrees()
	before := avgTreeEdgeCost(o)
	rng := sim.NewRNG(74)
	for i := 0; i < 8; i++ {
		o.Round(rng)
	}
	o.RebuildTrees()
	if after := avgTreeEdgeCost(o); after >= before {
		t.Fatalf("AOTO did not improve trees: %v vs %v", after, before)
	}
}
