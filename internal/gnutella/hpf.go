package gnutella

import (
	"math"
	"slices"

	"ace/internal/overlay"
	"ace/internal/sim"
)

// HPFSelect picks how partial-flooding hops choose their subset.
type HPFSelect int

const (
	// HPFRandom forwards to a uniformly random subset (the ICPP 2003
	// paper's baseline strategy).
	HPFRandom HPFSelect = iota + 1
	// HPFNearest forwards to the physically cheapest neighbors — the
	// weight-based strategy, which only pays off once the peer knows
	// its neighbor delays (ACE Phase 1 provides exactly that).
	HPFNearest
)

// HybridPeriodicalFlood implements HPF (reference [3], by the paper's
// authors): query propagation alternates between full flooding and
// partial flooding by hop index — hops where hop % period == 0 flood to
// every neighbor, the rest forward to at most fanout neighbors chosen by
// the selection strategy. It is the §2 "forwarding-based" approach whose
// gains the paper argues are limited by topology mismatch: every
// forwarded copy still pays the physical delay of its logical link.
//
// The engine rides the pooled flood kernel for its event queue and
// arrival bookkeeping but keeps its own float-millisecond clock and
// traffic accounting (HPF timestamps sends before quantizing to the
// virtual clock, so its arithmetic must not change). A copy popped for
// a peer that has crashed (its half-open edges not yet purged) counts
// as a dead letter and goes no further. The fault plan's message loss
// and jitter are not modelled here.
func HybridPeriodicalFlood(net *overlay.Network, rng *sim.RNG, src overlay.PeerID, ttl, fanout, period int, sel HPFSelect, responders map[overlay.PeerID]bool) QueryResult {
	if !net.Alive(src) {
		return QueryResult{FirstResponse: math.Inf(1)}
	}
	if fanout < 1 {
		fanout = 1
	}
	if period < 1 {
		period = 1
	}
	k := AcquireKernel()
	defer ReleaseKernel(k)
	k.Begin(net, nil, false)
	k.MarkResponders(responders)
	k.Arrive(src, -1, 0)
	first := math.Inf(1)
	if k.IsResponder(src) {
		first = 0
	}

	traffic := 0.0
	transmissions, duplicates, deadLetters := 0, 0, 0
	var targets []overlay.PeerID
	forward := func(at float64, p, from overlay.PeerID, hop int) {
		if hop >= ttl {
			return
		}
		nbrs := net.NeighborsView(p)
		targets = targets[:0]
		for _, n := range nbrs {
			if n != from {
				targets = append(targets, n)
			}
		}
		if hop%period != 0 && len(targets) > fanout {
			switch sel {
			case HPFNearest:
				slices.SortFunc(targets, func(a, b overlay.PeerID) int {
					ca, cb := net.Cost(p, a), net.Cost(p, b)
					switch {
					case ca < cb:
						return -1
					case ca > cb:
						return 1
					default:
						return int(a - b)
					}
				})
			default:
				rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
			}
			targets = targets[:fanout]
		}
		for _, n := range targets {
			c := net.Cost(p, n)
			traffic += c
			transmissions++
			k.Push(delayDur(at+c), p, n, hop+1)
		}
	}

	forward(0, src, -1, 0)
	for {
		m, ok := k.Next()
		if !ok {
			break
		}
		atMS := float64(m.At) / msPerDur
		if !net.Alive(m.To) {
			// Crash debris: the copy was paid for and is lost.
			deadLetters++
			continue
		}
		if k.Arrived(m.To) {
			duplicates++
			continue
		}
		k.Arrive(m.To, m.From, m.At)
		if k.IsResponder(m.To) {
			if rt := atMS + k.ReturnTime(m.To); rt < first {
				first = rt
			}
		}
		forward(atMS, m.To, m.From, m.TTL)
	}
	return QueryResult{
		Scope:         k.scope,
		TrafficCost:   traffic,
		Transmissions: transmissions,
		Duplicates:    duplicates,
		FirstResponse: first,
		DeadLetters:   deadLetters,
		Arrival:       k.ArrivalMap(),
	}
}
