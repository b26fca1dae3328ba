package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// span is one timed region the benchmark records around a call into a
// layer. Times are nanoseconds since the run started.
type span struct {
	Name   string
	ID     int32
	Parent int32 // -1 for a root span
	Step   int32 // the measured step this span belongs to; 0 for set-up
	Start  int64
	End    int64
}

// recorder timestamps calls and, when tracing, keeps every span in
// memory until the run ends. Untraced runs take the same timestamps and
// keep nothing, so the timed regions are identical in both modes.
type recorder struct {
	origin time.Time
	on     bool
	spans  []span
}

func newRecorder(on bool) *recorder { return &recorder{origin: time.Now(), on: on} }

// now returns the monotonic time since the run started, in ns.
func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// open starts a span and returns its id (-1 when tracing is off).
func (r *recorder) open(name string, parent, step int32, start int64) int32 {
	if !r.on {
		return -1
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Step: step, Start: start, End: start})
	return id
}

// close ends span id at end.
func (r *recorder) close(id int32, end int64) {
	if id >= 0 {
		r.spans[id].End = end
	}
}

// add records a span whose bounds are already known and returns its id.
func (r *recorder) add(name string, parent, step int32, start, end int64) int32 {
	id := r.open(name, parent, step, start)
	r.close(id, end)
	return id
}

// timed runs fn inside a span and returns the span's duration in ns.
func (r *recorder) timed(name string, parent, step int32, fn func()) int64 {
	start := r.now()
	id := r.open(name, parent, step, start)
	fn()
	end := r.now()
	r.close(id, end)
	return end - start
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover (children clipped to the
// parent, overlapping children counted once). Indexed by span id.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s, spans, children[i])
	}
	return self
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(parent span, spans []span, kids []int32) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int {
		switch {
		case x.a < y.a:
			return -1
		case x.a > y.a:
			return 1
		}
		return 0
	})
	var total, reach int64
	reach = parent.Start
	for _, v := range ivs {
		a := max(v.a, reach)
		if v.b > a {
			total += v.b - a
			reach = v.b
		}
	}
	return total
}

// stepBreakdown sums self time per span name over the descendants of
// each root span named root, keyed by step. The root's own self time is
// reported under the name "step.unattributed". For every step the
// values add up to the root span's wall time.
func stepBreakdown(spans []span, self []int64, root string) map[int32]map[string]int64 {
	rootOf := roots(spans)
	out := map[int32]map[string]int64{}
	for i, s := range spans {
		r := spans[rootOf[i]]
		if r.Name != root {
			continue
		}
		m := out[r.Step]
		if m == nil {
			m = map[string]int64{}
			out[r.Step] = m
		}
		name := s.Name
		if s.Parent < 0 {
			name = "step.unattributed"
		}
		m[name] += self[i]
	}
	return out
}

// roots returns the id of each span's root span. Parents are always
// opened before their children, so one pass in id order resolves them.
func roots(spans []span) []int32 {
	rootOf := make([]int32, len(spans))
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = s.ID
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
	}
	return rootOf
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto loads.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes spans as Chrome trace-event JSON on one track; the
// nesting Perfetto draws follows the time intervals, and args carry the
// explicit span id, parent and step.
func writeChrome(w io.Writer, spans []span, self []int64) error {
	evs := make([]chromeEvent, len(spans))
	for i, s := range spans {
		evs[i] = chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "step": s.Step,
				"self_us": float64(self[i]) / 1e3,
			},
		}
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
