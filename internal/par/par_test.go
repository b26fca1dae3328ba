package par

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, parsed from the header line
// runtime.Stack writes ("goroutine 17 [running]:").
func goid(t *testing.T) uint64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.ParseUint(string(f[1]), 10, 64)
	if err != nil {
		t.Errorf("parse goroutine id from %q: %v", buf[:], err)
	}
	return id
}

// TestRunClaimsEveryIndexOnce covers n = 0, 1, below the width and far
// above it: every index runs exactly once, worker ids stay below the
// effective width, each worker id maps to one goroutine and distinct ids
// to distinct goroutines, and worker 0 is the caller.
func TestRunClaimsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ width, n int }{
		{4, 0}, {4, 1}, {8, 3}, {4, 4}, {3, 10_000}, {1, 50}, {0, 7}, {-2, 7},
	} {
		caller := goid(t)
		hits := make([]atomic.Int32, tc.n)
		var mu sync.Mutex
		workerG := map[int]uint64{}
		Run(tc.width, tc.n, func(w, i int) {
			hits[i].Add(1)
			if w < 0 || w >= max(1, min(tc.width, tc.n)) {
				t.Errorf("width %d, n %d: worker id %d out of range", tc.width, tc.n, w)
			}
			g := goid(t)
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := workerG[w]; ok && prev != g {
				t.Errorf("width %d, n %d: worker %d ran on goroutines %d and %d", tc.width, tc.n, w, prev, g)
			}
			workerG[w] = g
		})
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("width %d, n %d: index %d ran %d times", tc.width, tc.n, i, c)
			}
		}
		seen := map[uint64]int{}
		for w, g := range workerG {
			if other, dup := seen[g]; dup {
				t.Fatalf("width %d, n %d: workers %d and %d share goroutine %d", tc.width, tc.n, w, other, g)
			}
			seen[g] = w
			if (w == 0) != (g == caller) {
				t.Fatalf("width %d, n %d: worker %d on goroutine %d, caller is %d", tc.width, tc.n, w, g, caller)
			}
		}
	}
}

// TestRunCallerIsWorkerZero forces worker 0 to take part: every started
// worker blocks after its first index until worker 0 has run one, so
// with n ≥ width the caller must claim one of the indices left over.
func TestRunCallerIsWorkerZero(t *testing.T) {
	const width, n = 4, 16
	caller := goid(t)
	zeroRan := make(chan struct{})
	var once sync.Once
	var zeroCalls atomic.Int32
	Run(width, n, func(w, i int) {
		if w != 0 {
			<-zeroRan
			if goid(t) == caller {
				t.Errorf("worker %d ran on the caller's goroutine", w)
			}
			return
		}
		if g := goid(t); g != caller {
			t.Errorf("worker 0 ran on goroutine %d, caller is %d", g, caller)
		}
		zeroCalls.Add(1)
		once.Do(func() { close(zeroRan) })
	})
	if zeroCalls.Load() == 0 {
		t.Fatal("worker 0 claimed no index")
	}
}

// TestRunWidthOneIsInline: width 1 (and any n ≤ 1) runs every index on
// the caller's goroutine, in index order, starting no goroutine — the
// goroutine count seen inside the body never exceeds the count before
// the call.
func TestRunWidthOneIsInline(t *testing.T) {
	for _, tc := range []struct{ width, n int }{{1, 100}, {0, 10}, {8, 1}} {
		caller := goid(t)
		before := runtime.NumGoroutine()
		var order []int
		Run(tc.width, tc.n, func(w, i int) {
			if w != 0 {
				t.Errorf("width %d, n %d: worker %d, want 0", tc.width, tc.n, w)
			}
			if g := goid(t); g != caller {
				t.Errorf("width %d, n %d: index %d on goroutine %d, caller is %d", tc.width, tc.n, i, g, caller)
			}
			if now := runtime.NumGoroutine(); now > before {
				t.Errorf("width %d, n %d: %d goroutines inside the loop, %d before it", tc.width, tc.n, now, before)
			}
			order = append(order, i)
		})
		for i, got := range order {
			if got != i {
				t.Fatalf("width %d, n %d: call %d got index %d, want index order", tc.width, tc.n, i, got)
			}
		}
		if len(order) != tc.n {
			t.Fatalf("width %d, n %d: %d calls", tc.width, tc.n, len(order))
		}
	}
}

// TestRunReturnsAfterEveryWorker: per-index writes made by any worker
// are visible once Run returns (the race detector checks the ordering).
func TestRunReturnsAfterEveryWorker(t *testing.T) {
	const n = 1000
	out := make([]int, n)
	Run(4, n, func(_, i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestRunPanicWaitsForWorkers: a panic in the caller's own share
// propagates, but only after the started worker has drained the cursor,
// so nothing still runs against the caller's state while it unwinds.
func TestRunPanicWaitsForWorkers(t *testing.T) {
	const n = 64
	var done atomic.Int32
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("worker 0's panic did not propagate")
			}
		}()
		Run(2, n, func(w, i int) {
			if w == 0 {
				panic("worker 0")
			}
			time.Sleep(100 * time.Microsecond) // the worker's share outlasts the caller's
			done.Add(1)
		})
	}()
	if got := done.Load(); got != n-1 {
		t.Fatalf("Run unwound with %d of the worker's %d indices done", got, n-1)
	}
}
