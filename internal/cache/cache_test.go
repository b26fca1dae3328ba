package cache

import (
	"math"
	"testing"
	"testing/quick"

	"ace/internal/core"
	"ace/internal/gnutella"
	"ace/internal/graph"
	"ace/internal/overlay"
	"ace/internal/physical"
	"ace/internal/sim"
)

func TestIndexLRU(t *testing.T) {
	ix := NewIndex(2)
	ix.Put(1, 10)
	ix.Put(2, 20)
	if r, ok := ix.Get(1); !ok || r != 10 {
		t.Fatal("entry 1 missing")
	}
	ix.Put(3, 30) // evicts 2 (1 was refreshed by Get)
	if _, ok := ix.Get(2); ok {
		t.Fatal("LRU should have evicted 2")
	}
	if _, ok := ix.Get(1); !ok {
		t.Fatal("refreshed entry 1 evicted")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len = %d, want 2", ix.Len())
	}
}

func TestIndexPutUpdates(t *testing.T) {
	ix := NewIndex(2)
	ix.Put(1, 10)
	ix.Put(1, 11)
	if ix.Len() != 1 {
		t.Fatalf("duplicate Put grew index to %d", ix.Len())
	}
	if r, _ := ix.Get(1); r != 11 {
		t.Fatalf("Put did not update responder: %d", r)
	}
}

func TestIndexInvalidate(t *testing.T) {
	ix := NewIndex(2)
	ix.Put(1, 10)
	ix.Invalidate(1)
	ix.Invalidate(99) // no-op
	if _, ok := ix.Get(1); ok || ix.Len() != 0 {
		t.Fatal("Invalidate failed")
	}
}

func TestIndexMinCapacity(t *testing.T) {
	ix := NewIndex(0)
	ix.Put(1, 10)
	ix.Put(2, 20)
	if ix.Len() != 1 {
		t.Fatalf("capacity floor violated: %d", ix.Len())
	}
}

func TestStore(t *testing.T) {
	s := NewStore(4)
	s.Of(3).Put(1, 10)
	if s.Peek(3) == nil || s.Size() != 1 {
		t.Fatal("store bookkeeping wrong")
	}
	if s.Peek(9) != nil {
		t.Fatal("Peek created an index")
	}
	s.Drop(3)
	if s.Size() != 0 {
		t.Fatal("Drop failed")
	}
}

// chainNet: peers 0-1-2-3 on a physical line, unit hop costs.
func chainNet(t *testing.T) *overlay.Network {
	t.Helper()
	g := graph.New(4)
	for i := 0; i < 3; i++ {
		g.AddEdge(i, i+1, 1)
	}
	net, err := overlay.NewNetwork(physical.NewOracle(g), []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(0)
	for p := 0; p < 4; p++ {
		net.Join(rng, overlay.PeerID(p), 0)
	}
	net.Connect(0, 1)
	net.Connect(1, 2)
	net.Connect(2, 3)
	return net
}

func TestEvaluateFillsAndUsesCache(t *testing.T) {
	net := chainNet(t)
	fwd := core.BlindFlooding{Net: net}
	store := NewStore(8)
	holds := func(p overlay.PeerID, kw int) bool { return p == 3 && kw == 7 }

	// Cold query from 0: full flood, holder at 3 answers at arrival 3.
	r1 := Evaluate(net, fwd, 0, gnutella.DefaultTTL, 7, holds, store)
	if r1.CacheHits != 0 || r1.FirstResponse != 6 || r1.Scope != 4 {
		t.Fatalf("cold query: %+v", r1)
	}
	// Inverse path 3→2→1→0 must now know 3 holds 7.
	for _, p := range []overlay.PeerID{0, 1, 2} {
		if resp, ok := store.Of(p).Get(7); !ok || resp != 3 {
			t.Fatalf("peer %d cache not filled: %v %v", p, resp, ok)
		}
	}
	// The holder itself never caches an entry pointing at itself.
	if _, ok := store.Of(3).Get(7); ok {
		t.Fatal("holder cached itself")
	}

	// Warm query from 0: source's own cache answers instantly; the
	// flood still proceeds from the source (it wants more results), but
	// relays with entries stop forwarding.
	r2 := Evaluate(net, fwd, 0, gnutella.DefaultTTL, 7, holds, store)
	if r2.FirstResponse != 0 || r2.CacheHits == 0 {
		t.Fatalf("warm query: %+v", r2)
	}
	if r2.TrafficCost >= r1.TrafficCost {
		t.Fatalf("cache did not cut traffic: %v vs %v", r2.TrafficCost, r1.TrafficCost)
	}
}

func TestEvaluateRelayCacheTerminatesBranch(t *testing.T) {
	net := chainNet(t)
	fwd := core.BlindFlooding{Net: net}
	store := NewStore(8)
	// Pre-seed relay 1 with an entry for keyword 7 held by peer 0.
	store.Of(1).Put(7, 0)
	holds := func(p overlay.PeerID, kw int) bool { return p == 0 && kw == 7 }
	r := Evaluate(net, fwd, 2, gnutella.DefaultTTL, 7, holds, store)
	// Query 2→1 (hit at 1, stop) and 2→3 (miss, dead end): peer 0 never
	// receives the query.
	if r.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", r.CacheHits)
	}
	if _, reached := r.Arrival[0]; reached {
		t.Fatal("branch not terminated at caching relay")
	}
	if r.FirstResponse != 2 { // arrival at 1 costs 1, ×2
		t.Fatalf("FirstResponse = %v, want 2", r.FirstResponse)
	}
}

func TestEvaluateStaleEntryInvalidated(t *testing.T) {
	net := chainNet(t)
	fwd := core.BlindFlooding{Net: net}
	store := NewStore(8)
	store.Of(1).Put(7, 3)
	net.Leave(3) // cached responder dies
	holds := func(overlay.PeerID, int) bool { return false }
	r := Evaluate(net, fwd, 0, gnutella.DefaultTTL, 7, holds, store)
	if r.StaleHits != 1 || r.CacheHits != 0 {
		t.Fatalf("stale handling: %+v", r)
	}
	if _, ok := store.Of(1).Get(7); ok {
		t.Fatal("stale entry not invalidated")
	}
	if !math.IsInf(r.FirstResponse, 1) {
		t.Fatalf("FirstResponse = %v, want +Inf", r.FirstResponse)
	}
}

func TestEvaluateMatchesGnutellaWhenCacheCold(t *testing.T) {
	net := chainNet(t)
	fwd := core.BlindFlooding{Net: net}
	store := NewStore(8)
	holds := func(overlay.PeerID, int) bool { return false }
	got := Evaluate(net, fwd, 0, gnutella.DefaultTTL, 7, holds, store)
	want := gnutella.Evaluate(net, fwd, 0, gnutella.DefaultTTL, nil)
	if got.Scope != want.Scope || got.TrafficCost != want.TrafficCost ||
		got.Transmissions != want.Transmissions || got.Duplicates != want.Duplicates {
		t.Fatalf("cold cache diverges from plain flood:\n%+v\n%+v", got.QueryResult, want)
	}
}

func TestEvaluateDeadSource(t *testing.T) {
	net := chainNet(t)
	net.Leave(0)
	store := NewStore(8)
	r := Evaluate(net, core.BlindFlooding{Net: net}, 0, gnutella.DefaultTTL, 7,
		func(overlay.PeerID, int) bool { return false }, store)
	if r.Scope != 0 || r.Transmissions != 0 {
		t.Fatalf("dead source: %+v", r)
	}
}

// TestIndexMatchesModelProperty drives the LRU index and a brute-force
// reference model with the same random operation sequence and checks
// they agree — a model-based property test via testing/quick.
func TestIndexMatchesModelProperty(t *testing.T) {
	type model struct {
		order []int // most recent first
		resp  map[int]overlay.PeerID
	}
	f := func(seed int64, capRaw uint8, ops []uint16) bool {
		capacity := int(capRaw%8) + 1
		ix := NewIndex(capacity)
		m := model{resp: map[int]overlay.PeerID{}}
		touch := func(kw int) {
			for i, k := range m.order {
				if k == kw {
					m.order = append(m.order[:i], m.order[i+1:]...)
					break
				}
			}
			m.order = append([]int{kw}, m.order...)
		}
		for _, op := range ops {
			kw := int(op % 16)
			responder := overlay.PeerID(op / 16 % 8)
			switch op % 3 {
			case 0: // Put
				ix.Put(kw, responder)
				if _, ok := m.resp[kw]; !ok && len(m.order) >= capacity {
					oldest := m.order[len(m.order)-1]
					m.order = m.order[:len(m.order)-1]
					delete(m.resp, oldest)
				}
				m.resp[kw] = responder
				touch(kw)
			case 1: // Get
				got, ok := ix.Get(kw)
				want, wok := m.resp[kw]
				if ok != wok || (ok && got != want) {
					return false
				}
				if wok {
					touch(kw)
				}
			case 2: // Invalidate
				ix.Invalidate(kw)
				if _, ok := m.resp[kw]; ok {
					delete(m.resp, kw)
					for i, k := range m.order {
						if k == kw {
							m.order = append(m.order[:i], m.order[i+1:]...)
							break
						}
					}
				}
			}
			if ix.Len() != len(m.resp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
