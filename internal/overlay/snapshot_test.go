package overlay

import (
	"reflect"
	"strings"
	"testing"

	"ace/internal/sim"
)

// churnedNet builds a network with every flavor of history the snapshot
// must carry: live edges, a graceful leave (host cache populated), a
// crash (dangling references), and a journal with all five event kinds.
func churnedNet(t *testing.T) *Network {
	t.Helper()
	net := testNet(t, 8)
	rng := sim.NewRNG(11)
	allAlive(rng, net)
	for _, e := range [][2]PeerID{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {1, 7}} {
		if !net.Connect(e[0], e[1]) {
			t.Fatalf("Connect%v failed", e)
		}
	}
	net.Leave(7) // host cache remembers 1 and 6
	net.Crash(2) // 0, 1, 3 keep half-open references
	net.Connect(0, 3)
	return net
}

func restored(t *testing.T, net *Network) *Network {
	t.Helper()
	r, err := RestoreNetwork(net.oracle, net.SnapshotState())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	net := churnedNet(t)
	r := restored(t, net)

	if r.N() != net.N() || r.NumAlive() != net.NumAlive() || r.NumEdges() != net.NumEdges() {
		t.Fatalf("counts diverged: N %d/%d alive %d/%d edges %d/%d",
			r.N(), net.N(), r.NumAlive(), net.NumAlive(), r.NumEdges(), net.NumEdges())
	}
	if r.Dangling() != net.Dangling() {
		t.Fatalf("Dangling = %d, want %d", r.Dangling(), net.Dangling())
	}
	if !reflect.DeepEqual(r.DanglingPairs(nil), net.DanglingPairs(nil)) {
		t.Fatalf("DanglingPairs = %v, want %v", r.DanglingPairs(nil), net.DanglingPairs(nil))
	}
	for p := 0; p < net.N(); p++ {
		if !reflect.DeepEqual(r.Neighbors(PeerID(p)), net.Neighbors(PeerID(p))) {
			t.Fatalf("peer %d adjacency diverged: %v vs %v", p, r.Neighbors(PeerID(p)), net.Neighbors(PeerID(p)))
		}
		if !reflect.DeepEqual(r.hostCache[p], net.hostCache[p]) &&
			!(len(r.hostCache[p]) == 0 && len(net.hostCache[p]) == 0) {
			t.Fatalf("peer %d host cache diverged: %v vs %v", p, r.hostCache[p], net.hostCache[p])
		}
		if net.Alive(PeerID(p)) != r.Alive(PeerID(p)) {
			t.Fatalf("peer %d liveness diverged", p)
		}
	}
	if !reflect.DeepEqual(r.SnapshotEdges(), net.SnapshotEdges()) {
		t.Fatal("SnapshotEdges diverged")
	}
	if r.Version() != net.Version() {
		t.Fatalf("Version = %d, want %d", r.Version(), net.Version())
	}
	a, nextA, okA := net.EventsSince(0)
	b, nextB, okB := r.EventsSince(0)
	if okA != okB || nextA != nextB {
		t.Fatalf("EventsSince(0) disagrees: (%v,%d) vs (%v,%d)", okA, nextA, okB, nextB)
	}
	eventsEqual(t, b, a)
}

// TestSnapshotRestoreBehavesIdentically pins the stronger contract: the
// restored network is not just structurally equal, it responds to the
// same mutation sequence with the same outcomes — rejoin purges the same
// debris, host-cache dials reconnect the same peers, journals match.
func TestSnapshotRestoreBehavesIdentically(t *testing.T) {
	net := churnedNet(t)
	r := restored(t, net)
	cursor := net.Version()

	drive := func(n *Network) {
		rng := sim.NewRNG(77)
		n.Join(rng, 7, 3) // rejoin via host cache
		n.Join(rng, 2, 2) // rejoin purges the dangling references
		n.Disconnect(0, 1)
		n.Crash(6)
		n.PurgeDangling(5, 6)
		n.Leave(4)
	}
	drive(net)
	drive(r)

	if net.NumEdges() != r.NumEdges() || net.Dangling() != r.Dangling() || net.NumAlive() != r.NumAlive() {
		t.Fatalf("post-restore drive diverged: edges %d/%d dangling %d/%d alive %d/%d",
			net.NumEdges(), r.NumEdges(), net.Dangling(), r.Dangling(), net.NumAlive(), r.NumAlive())
	}
	if !reflect.DeepEqual(net.SnapshotEdges(), r.SnapshotEdges()) {
		t.Fatal("edges diverged after identical mutations")
	}
	a, _, okA := net.EventsSince(cursor)
	b, _, okB := r.EventsSince(cursor)
	if !okA || !okB {
		t.Fatal("journal truncated unexpectedly")
	}
	eventsEqual(t, b, a)
}

// TestSnapshotRestoreCompactedJournal is the satellite case: a snapshot
// taken after CompactJournal carries a nonzero journal base, and the
// restored network reproduces the exact resync semantics — stale cursors
// report !ok, the boundary cursor reads the surviving tail.
func TestSnapshotRestoreCompactedJournal(t *testing.T) {
	net := churnedNet(t)
	mid := net.Version() - 2
	net.CompactJournal(mid)
	r := restored(t, net)

	if r.journalBase != mid {
		t.Fatalf("restored journal base = %d, want %d", r.journalBase, mid)
	}
	if _, next, ok := r.EventsSince(mid - 1); ok {
		t.Fatal("pre-compaction cursor should report !ok after restore")
	} else if next != r.Version() {
		t.Fatalf("resync cursor = %d, want %d", next, r.Version())
	}
	got, _, ok := r.EventsSince(mid)
	if !ok {
		t.Fatal("boundary cursor must stay readable after restore")
	}
	want, _, _ := net.EventsSince(mid)
	eventsEqual(t, got, want)
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(st *NetState)
		want   string
	}{
		{"empty", func(st *NetState) { st.Attach = nil }, "empty attachment"},
		{"attach range", func(st *NetState) { st.Attach[0] = 9999 }, "out of range"},
		{"size mismatch", func(st *NetState) { st.Alive = st.Alive[:3] }, "sizes disagree"},
		{"dead with adjacency", func(st *NetState) {
			st.Nbr[2] = []PeerID{0} // 2 is crashed
		}, "dead peer"},
		{"self loop", func(st *NetState) { st.Nbr[0] = []PeerID{0} }, "itself"},
		{"unsorted adjacency", func(st *NetState) {
			st.Nbr[0] = []PeerID{3, 1}
		}, "ascending"},
		{"asymmetric edge", func(st *NetState) {
			st.Nbr[5] = insertSorted(append([]PeerID(nil), st.Nbr[5]...), 0)
		}, "asymmetric"},
		{"neighbor out of range", func(st *NetState) {
			st.Nbr[0] = []PeerID{PeerID(len(st.Attach))}
		}, "out-of-range"},
		{"host cache self", func(st *NetState) { st.HostCache[0] = []PeerID{0} }, "host cache"},
		{"journal length", func(st *NetState) { st.Journal = st.Journal[:len(st.Journal)-1] }, "version span"},
		{"journal base beyond version", func(st *NetState) {
			st.JournalBase = st.Version + 1
			st.Journal = nil
		}, "beyond version"},
		{"journal bad kind", func(st *NetState) {
			st.Journal[0].Kind = 99
		}, "unknown event kind"},
		{"journal liveness malformed", func(st *NetState) {
			for i := range st.Journal {
				if st.Journal[i].Kind == EventJoin {
					st.Journal[i].Q = 3
					return
				}
			}
		}, "malformed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := churnedNet(t)
			st := net.SnapshotState()
			// Deep-copy the mutable sections so per-case corruption cannot
			// leak through the aliasing snapshot into a shared network.
			st.Attach = append([]int(nil), st.Attach...)
			st.Alive = append([]bool(nil), st.Alive...)
			nbr := make([][]PeerID, len(st.Nbr))
			for i := range st.Nbr {
				nbr[i] = append([]PeerID(nil), st.Nbr[i]...)
			}
			st.Nbr = nbr
			hc := make([][]PeerID, len(st.HostCache))
			for i := range st.HostCache {
				hc[i] = append([]PeerID(nil), st.HostCache[i]...)
			}
			st.HostCache = hc
			st.Journal = append([]Event(nil), st.Journal...)

			tc.mutate(st)
			_, err := RestoreNetwork(net.oracle, st)
			if err == nil {
				t.Fatal("corrupt state accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
