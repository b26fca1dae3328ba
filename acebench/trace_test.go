package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// handTrace is one step of 100 ns:
//
//	step      [0,100)
//	  a       [10,40)
//	    a1    [15,25)
//	    a2    [20,30)   overlaps a1: the union [15,30) counts once
//	  b       [50,70)
//	    b1    [60,90)   sticks out of b: clipped to [60,70)
//	checks    [100,120) a root outside the step
//	  enc     [105,110)
func handTrace() []span {
	return []span{
		{Name: "step", ID: 0, Parent: -1, Step: 1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Step: 1, Start: 10, End: 40},
		{Name: "a1", ID: 2, Parent: 1, Step: 1, Start: 15, End: 25},
		{Name: "a2", ID: 3, Parent: 1, Step: 1, Start: 20, End: 30},
		{Name: "b", ID: 4, Parent: 0, Step: 1, Start: 50, End: 70},
		{Name: "b1", ID: 5, Parent: 4, Step: 1, Start: 60, End: 90},
		{Name: "checks", ID: 6, Parent: -1, Step: 1, Start: 100, End: 120},
		{Name: "enc", ID: 7, Parent: 6, Step: 1, Start: 105, End: 110},
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes(handTrace())
	want := []int64{
		100 - 30 - 20, // step minus a and b
		30 - 15,       // a minus the union of a1 and a2
		10, 10,        // leaves
		20 - 10, // b minus b1 clipped to b
		30,      // b1 itself is not clipped
		20 - 5,
		5,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, self[i], want[i])
		}
	}
}

func TestStepBreakdownResidual(t *testing.T) {
	spans := handTrace()
	// Once a2 no longer overlaps a1 and b1 ends inside b, the children
	// nest cleanly, as the benchmark's single-goroutine spans always do,
	// and the layer self times plus the residual add up to the step's
	// wall time.
	spans[3].Start = 25
	spans[5].End = 70
	bd := stepBreakdown(spans, selfTimes(spans), "step")
	if len(bd) != 1 {
		t.Fatalf("breakdown has %d steps, want 1", len(bd))
	}
	m := bd[1]
	if m["step.unattributed"] != 50 {
		t.Errorf("residual %d, want 50", m["step.unattributed"])
	}
	if _, ok := m["enc"]; ok {
		t.Error("a span under another root was attributed to the step")
	}
	var sum int64
	for _, v := range m {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times plus residual = %d, want the step's wall time 100", sum)
	}
}

func TestRecorderOffKeepsNothing(t *testing.T) {
	r := newRecorder(false)
	called := false
	d := r.timed("x", -1, 1, func() { called = true })
	if !called || d < 0 || len(r.spans) != 0 {
		t.Errorf("untraced recorder: called %v, duration %d, %d spans kept", called, d, len(r.spans))
	}
	r = newRecorder(true)
	root := r.open("step", -1, 3, r.now())
	r.timed("child", root, 3, func() {})
	r.close(root, r.now())
	if len(r.spans) != 2 || r.spans[1].Parent != root || r.spans[0].End < r.spans[1].End {
		t.Errorf("traced recorder spans: %+v", r.spans)
	}
}

func TestWriteChrome(t *testing.T) {
	spans := handTrace()
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans, selfTimes(spans)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Fatalf("%d events, want %d", len(doc.TraceEvents), len(spans))
	}
	e := doc.TraceEvents[4]
	if e.Name != "b" || e.Ph != "X" || e.Ts != 0.05 || e.Dur != 0.02 || e.Args["parent"] != 0.0 {
		t.Errorf("event b = %+v", e)
	}
}

// BenchmarkTimed prices one timed call with tracing off and on; a traced
// step adds the difference once per span it records.
func BenchmarkTimed(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "untraced"
		if on {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			r := newRecorder(on)
			for b.Loop() {
				r.timed("gnutella.ace_query", 0, 1, func() {})
				if len(r.spans) == 1<<16 {
					r.spans = r.spans[:0]
				}
			}
		})
	}
}
