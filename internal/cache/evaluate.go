package cache

import (
	"math"

	"ace/internal/core"
	"ace/internal/gnutella"
	"ace/internal/overlay"
)

// Result extends the per-query metrics with cache activity.
type Result struct {
	gnutella.QueryResult
	// CacheHits counts peers that answered from their index (and
	// therefore stopped forwarding).
	CacheHits int
	// StaleHits counts index entries that pointed at a dead peer and
	// were invalidated on access.
	StaleHits int
}

// Evaluate propagates one query as gnutella.Evaluate does, with the index
// caching scheme layered on: a relay whose index holds a live entry for
// the keyword answers immediately and does not forward; actual holders
// answer and keep forwarding (standard Gnutella). After the flood, every
// peer on the inverse path of the earliest answer learns the responder —
// the QueryHit filling caches as it travels home.
//
// The flood runs on the shared pooled gnutella.Kernel: dense epoch-stamped
// arrival state, the typed event heap, and the kernel's reusable
// forwarding scratch, with only the cache probes layered on this
// package's side of the loop.
func Evaluate(net *overlay.Network, fwd core.Forwarder, src overlay.PeerID, ttl, keyword int, holds func(overlay.PeerID, int) bool, store *Store) Result {
	res := Result{QueryResult: gnutella.QueryResult{FirstResponse: math.Inf(1)}}
	if !net.Alive(src) {
		return res
	}
	k := gnutella.AcquireKernel()
	defer gnutella.ReleaseKernel(k)
	k.Begin(net, fwd, false)
	k.Arrive(src, -1, 0)

	// answerer is the peer whose answer arrives home first; target is
	// the object holder it names (itself, or its index entry). The
	// return trip prices at the kernel's memoized inverse-path cost.
	var answerer, target overlay.PeerID = -1, -1
	answer := func(p overlay.PeerID, atMS float64, holder overlay.PeerID) {
		if rt := atMS + k.ReturnTime(p); rt < res.FirstResponse {
			res.FirstResponse = rt
			answerer, target = p, holder
		}
	}

	if holds(src, keyword) {
		answer(src, 0, src)
	} else if r, ok := store.Of(src).Get(keyword); ok {
		if net.Alive(r) {
			res.CacheHits++
			answer(src, 0, r)
		} else {
			store.Of(src).Invalidate(keyword)
			res.StaleHits++
		}
	}

	if ttl > 0 {
		k.Emit(0, src, k.ForwardOf(src, src, -1, core.NoTree, nil, -1, nil, true), ttl-1)
	}
	for {
		m, ok := k.Next()
		if !ok {
			break
		}
		first := !k.Arrived(m.To)
		forward := true
		if !first {
			k.Duplicate()
		} else {
			k.Arrive(m.To, m.From, m.At)
			switch {
			case holds(m.To, keyword):
				answer(m.To, k.ArrivalMS(m.To), m.To)
			default:
				if r, ok := store.Of(m.To).Get(keyword); ok {
					if net.Alive(r) {
						res.CacheHits++
						answer(m.To, k.ArrivalMS(m.To), r)
						forward = false // index answer terminates this branch
					} else {
						store.Of(m.To).Invalidate(keyword)
						res.StaleHits++
					}
				}
			}
		}
		if !forward || m.TTL <= 0 {
			continue
		}
		if !first && (m.Serving == core.NoTree || k.Served(m.To, m.Serving)) {
			// A duplicate forwards nothing new: blind relays only first
			// copies, and a continuation of an already-served tag would be
			// dropped by Emit's dedup — so skip the forwarder.
			continue
		}
		k.Emit(m.At, m.To, k.ForwardOf(src, m.To, m.From, m.Serving, m.Adj, m.ToPos, m.Covered, first), m.TTL-1)
	}

	k.ObserveFlood()
	res.QueryResult = k.Result(res.FirstResponse)
	observeFlood(&res)

	// The winning QueryHit travels the inverse path home, populating the
	// index of every peer it passes (including the source).
	if answerer >= 0 && target >= 0 {
		for p := answerer; ; {
			if p != target {
				store.Of(p).Put(keyword, target)
			}
			prev, ok := k.Back(p)
			if !ok || p == src {
				break
			}
			p = prev
		}
	}
	return res
}
