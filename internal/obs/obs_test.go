package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// withEnabled runs fn with the default registry enabled, restoring the
// disabled state afterwards (the package default).
func withEnabled(t *testing.T, fn func()) {
	t.Helper()
	Enable()
	defer Disable()
	fn()
}

func TestDisabledRegistryIsNoOp(t *testing.T) {
	Disable()
	c := NewCounter("ace.test.disabled.counter")
	g := NewGauge("ace.test.disabled.gauge")
	h := NewHistogram("ace.test.disabled.hist")
	s := NewSpan("ace.test.disabled.span")

	c.Inc()
	c.Add(41)
	g.Set(7)
	g.Add(3)
	h.Observe(123)
	elapsed := s.Start().End()

	if c.Value() != 0 {
		t.Fatalf("disabled counter recorded %d", c.Value())
	}
	if g.Value() != 0 {
		t.Fatalf("disabled gauge recorded %d", g.Value())
	}
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("disabled histogram recorded count=%d sum=%d", h.Count(), h.Sum())
	}
	if s.Count() != 0 {
		t.Fatalf("disabled span recorded %d timings", s.Count())
	}
	// The span still measures: its elapsed value feeds StepReport even
	// with the registry off.
	if elapsed < 0 {
		t.Fatalf("span elapsed = %d, want >= 0", elapsed)
	}
}

func TestEnabledRecording(t *testing.T) {
	withEnabled(t, func() {
		c := NewCounter("ace.test.enabled.counter")
		g := NewGauge("ace.test.enabled.gauge")
		s := NewSpan("ace.test.enabled.span")
		c.Add(5)
		c.Inc()
		g.Set(-2)
		g.Add(12)
		s.Start().End()
		if c.Value() != 6 {
			t.Fatalf("counter = %d, want 6", c.Value())
		}
		if g.Value() != 10 {
			t.Fatalf("gauge = %d, want 10", g.Value())
		}
		if s.Count() != 1 {
			t.Fatalf("span count = %d, want 1", s.Count())
		}
	})
}

// TestHistogramBucketEdges pins the log₂ bucketing at its edges: 0 is
// its own bucket, 1 is the first power bucket, and MaxUint64 lands in
// the last of the 65 buckets.
func TestHistogramBucketEdges(t *testing.T) {
	withEnabled(t, func() {
		h := NewHistogram("ace.test.hist.edges")
		h.Observe(0)
		h.Observe(1)
		h.Observe(math.MaxUint64)
		snap := h.snapshot()
		if snap.Count != 3 {
			t.Fatalf("count = %d, want 3", snap.Count)
		}
		// The sum is modular: 0 + 1 + MaxUint64 wraps to exactly 0.
		var want uint64 = math.MaxUint64
		want += 1 // deliberate wrap
		if snap.Sum != want {
			t.Fatalf("sum = %d, want %d (wrapping)", snap.Sum, want)
		}
		if len(snap.Buckets) != histBuckets {
			t.Fatalf("buckets trimmed to %d, want %d (MaxUint64 fills the last)", len(snap.Buckets), histBuckets)
		}
		if snap.Buckets[0] != 1 {
			t.Fatalf("bucket[0] = %d, want 1 (the zero bucket)", snap.Buckets[0])
		}
		if snap.Buckets[1] != 1 {
			t.Fatalf("bucket[1] = %d, want 1 (value 1)", snap.Buckets[1])
		}
		if snap.Buckets[64] != 1 {
			t.Fatalf("bucket[64] = %d, want 1 (MaxUint64)", snap.Buckets[64])
		}
		for i, b := range snap.Buckets {
			if i != 0 && i != 1 && i != 64 && b != 0 {
				t.Fatalf("bucket[%d] = %d, want 0", i, b)
			}
		}
	})
}

func TestHistogramBucketBoundaries(t *testing.T) {
	withEnabled(t, func() {
		h := NewHistogram("ace.test.hist.bounds")
		// 2^k-1 and 2^k straddle a bucket boundary for every k.
		h.Observe(255) // bucket 8: [128, 255]
		h.Observe(256) // bucket 9: [256, 511]
		snap := h.snapshot()
		if snap.Buckets[8] != 1 || snap.Buckets[9] != 1 {
			t.Fatalf("boundary buckets = %v", snap.Buckets)
		}
		if lo, hi := BucketBounds(8); lo != 128 || hi != 255 {
			t.Fatalf("BucketBounds(8) = [%d, %d], want [128, 255]", lo, hi)
		}
		if lo, hi := BucketBounds(0); lo != 0 || hi != 0 {
			t.Fatalf("BucketBounds(0) = [%d, %d], want [0, 0]", lo, hi)
		}
		if lo, hi := BucketBounds(64); lo != 1<<63 || hi != math.MaxUint64 {
			t.Fatalf("BucketBounds(64) = [%d, %d]", lo, hi)
		}
	})
}

func TestSnapshotSortedAndConcurrentSafe(t *testing.T) {
	withEnabled(t, func() {
		c := NewCounter("ace.test.concurrent")
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					c.Inc()
				}
			}()
		}
		wg.Wait()
		if c.Value() != 8000 {
			t.Fatalf("concurrent counter = %d, want 8000", c.Value())
		}
		snaps := Default().Snapshot()
		for i := 1; i < len(snaps); i++ {
			if snaps[i-1].Name > snaps[i].Name {
				t.Fatalf("snapshot not sorted: %q > %q", snaps[i-1].Name, snaps[i].Name)
			}
		}
	})
}

func TestHandlerServesSnapshot(t *testing.T) {
	withEnabled(t, func() {
		c := NewCounter("ace.test.handler.counter")
		c.Add(9)
		rec := httptest.NewRecorder()
		Handler(Default()).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
		body := rec.Body.String()
		if !strings.Contains(body, `"ace.test.handler.counter"`) {
			t.Fatalf("snapshot body missing counter: %s", body)
		}
		if !strings.Contains(body, `"enabled": true`) {
			t.Fatalf("snapshot body missing enabled flag: %s", body)
		}
	})
}
