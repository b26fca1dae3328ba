package gnutella

import (
	"math"
	"time"

	"ace/internal/core"
	"ace/internal/overlay"
	"ace/internal/sim"
)

// RandomWalk simulates the k-walker random-walk search baseline (§2's
// first alternative to flooding — Lv et al.'s "Search and replication in
// unstructured peer-to-peer networks"): k walkers start at src and each
// takes up to maxHops uniformly random steps (avoiding an immediate
// backtrack when another neighbor exists), terminating individually when
// they hit a responder. The returned metrics use the same definitions as
// Evaluate, so walk- and flood-based searches compare directly — and
// show that heuristic routing suffers from topology mismatch exactly as
// the paper argues, since every hop pays the physical delay of the
// logical link.
func RandomWalk(net *overlay.Network, rng *sim.RNG, src overlay.PeerID, walkers, maxHops int, responders map[overlay.PeerID]bool) QueryResult {
	res := QueryResult{
		Arrival:       map[overlay.PeerID]float64{src: 0},
		FirstResponse: math.Inf(1),
	}
	if !net.Alive(src) {
		res.Arrival = nil
		return res
	}
	res.Scope = 1
	if responders[src] {
		res.FirstResponse = 0
	}

	type walker struct {
		at        float64 // walk time so far (ms)
		pathCost  float64 // return-trip cost along the reverse path
		pos, prev overlay.PeerID
		hops      int
	}
	// A heap keeps walker events in global time order so Arrival and
	// FirstResponse stay consistent with the flood evaluators.
	type walkEvent struct {
		at  time.Duration
		seq uint64
		idx int32
	}
	q := sim.NewPQ(func(a, b walkEvent) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
	var seq uint64
	walkersState := make([]walker, 0, walkers)
	push := func(idx int, at float64) {
		q.Push(walkEvent{at: delayDur(at), seq: seq, idx: int32(idx)})
		seq++
	}
	for i := 0; i < walkers; i++ {
		walkersState = append(walkersState, walker{pos: src, prev: -1})
		push(i, 0)
	}
	for q.Len() > 0 {
		ev := q.Pop()
		w := &walkersState[int(ev.idx)]
		if w.hops >= maxHops {
			continue
		}
		nbrs := net.NeighborsView(w.pos)
		if len(nbrs) == 0 {
			continue
		}
		next := nbrs[rng.Intn(len(nbrs))]
		if next == w.prev && len(nbrs) > 1 {
			// Avoid an immediate backtrack: redraw once among the rest.
			next = nbrs[rng.Intn(len(nbrs))]
			if next == w.prev {
				continueIdx := (indexOf(nbrs, w.prev) + 1) % len(nbrs)
				next = nbrs[continueIdx]
			}
		}
		c := net.Cost(w.pos, next)
		res.TrafficCost += c
		res.Transmissions++
		w.prev, w.pos = w.pos, next
		w.at += c
		w.pathCost += c
		w.hops++
		if _, seen := res.Arrival[next]; !seen {
			res.Arrival[next] = w.at
			res.Scope++
		} else {
			res.Duplicates++
		}
		if responders[next] {
			// The hit returns along the walker's reverse path.
			if rt := w.at + w.pathCost; rt < res.FirstResponse {
				res.FirstResponse = rt
			}
			continue // this walker terminates
		}
		push(int(ev.idx), w.at)
	}
	return res
}

func indexOf(xs []overlay.PeerID, v overlay.PeerID) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return 0
}

// ExpandingRing implements the iterative-deepening baseline (Lv et al.):
// flood with TTL 1, then 2, … up to maxTTL, stopping at the first ring
// that produces an answer. Each ring is a fresh flood whose traffic,
// sends, duplicates, losses and dead letters add up — cheap for popular
// objects, more expensive than one flood for rare ones, and in every
// case paying the physical delay of each logical hop.
func ExpandingRing(net *overlay.Network, fwd core.Forwarder, src overlay.PeerID, maxTTL int, responders map[overlay.PeerID]bool) QueryResult {
	var total QueryResult
	total.FirstResponse = math.Inf(1)
	elapsed := 0.0
	for ttl := 1; ttl <= maxTTL; ttl++ {
		r := Evaluate(net, fwd, src, ttl, responders)
		total.TrafficCost += r.TrafficCost
		total.Transmissions += r.Transmissions
		total.Duplicates += r.Duplicates
		total.Lost += r.Lost
		total.DeadLetters += r.DeadLetters
		if r.Scope > total.Scope {
			total.Scope = r.Scope
			total.Arrival = r.Arrival
		}
		if !math.IsInf(r.FirstResponse, 1) {
			// Rings run back to back: earlier fruitless rings delay the
			// answer by their full round-trip horizon.
			total.FirstResponse = elapsed + r.FirstResponse
			return total
		}
		horizon := 0.0
		for _, at := range r.Arrival {
			if at > horizon {
				horizon = at
			}
		}
		elapsed += 2 * horizon
	}
	return total
}
