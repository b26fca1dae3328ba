// Package par runs index-parallel loops: the one fan-out primitive the
// engine's per-peer phases, the oracle warm-up and the experiment
// sweeps share.
package par

import (
	"sync"
	"sync/atomic"
)

// Run calls body(w, i) exactly once for every i in [0, n) and returns
// when every call has. The calls are spread over min(width, n) workers:
// worker 0 is the calling goroutine, workers 1.. are started for the
// call, and each worker claims the next unclaimed index off one shared
// atomic cursor until none is left — so a worker that draws cheap
// indices simply takes more of them. With width ≤ 1 (or n ≤ 1) the loop
// runs inline, in index order, without starting a goroutine.
//
// Calls for different indices may run concurrently: body may write only
// what index i owns or what worker w owns (w < width), never shared
// state. Run's return orders every call before the caller's next step,
// so results left in per-index or per-worker slots are safe to read
// after it.
func Run(width, n int, body func(w, i int)) {
	width = min(width, n)
	if width <= 1 {
		for i := 0; i < n; i++ {
			body(0, i)
		}
		return
	}
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			body(w, i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(width - 1)
	// Deferred so that a panic in the caller's own share still waits for
	// the started workers before it unwinds past their shared state.
	defer wg.Wait()
	for w := 1; w < width; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
}
