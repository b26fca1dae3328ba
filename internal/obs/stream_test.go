package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"ace/internal/core"
	"ace/internal/gnutella"
	"ace/internal/obs"
)

// TestStreamRoundTrip pins the -metrics JSONL format: records written by
// a Stream decode back bit-identically through the Decoder, each payload
// into its producer's type.
func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := obs.NewStream(&buf)

	round := core.StepReport{
		RebuildNanos: 1200, Phase3Nanos: 800, RepairNanos: 50,
		Probes: 40, Replacements: 7, KeptNew: 2, DeferredCuts: 1,
		Abandoned: 1, Repairs: 3, ProbeTraffic: 812.5, ExchangeCost: 90210.25,
	}
	query := gnutella.NewQueryRecord("step3", 3, 12, 77, gnutella.QueryResult{
		Scope: 400, TrafficCost: 4821.75, FirstResponse: 91.5, Transmissions: 512, Duplicates: 113, Lost: 4,
	})
	s.EmitRound(round)
	s.EmitQuery(query)
	s.EmitSnapshot([]obs.Snapshot{{Name: "ace.test.stream", Kind: "counter", Value: 5}})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("decoded %d records, want 3", len(recs))
	}
	var gotRound core.StepReport
	if recs[0].Type != "round" || json.Unmarshal(recs[0].Round, &gotRound) != nil || gotRound != round {
		t.Fatalf("round record did not round-trip: %+v", recs[0])
	}
	// FirstResponse travels as ResponseMS; the json:"-" field itself
	// decodes as zero.
	want := query
	want.FirstResponse = 0
	var gotQuery gnutella.QueryRecord
	if recs[1].Type != "query" || json.Unmarshal(recs[1].Query, &gotQuery) != nil || !reflect.DeepEqual(gotQuery, want) {
		t.Fatalf("query record did not round-trip: %+v", recs[1])
	}
	if recs[2].Type != "snapshot" || len(recs[2].Snapshot) != 1 || recs[2].Snapshot[0].Value != 5 {
		t.Fatalf("snapshot record did not round-trip: %+v", recs[2])
	}
	// One record per line, decodable independently (tail -f / grep
	// friendliness is the point of JSONL).
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("stream wrote %d lines, want 3", len(lines))
	}
}

// TestQueryRecordInfResponse pins the +Inf mapping: the evaluator
// reports +Inf for unanswered queries, JSON cannot carry it, the stream
// stores -1.
func TestQueryRecordInfResponse(t *testing.T) {
	q := gnutella.NewQueryRecord("x", 0, 0, 0, gnutella.QueryResult{FirstResponse: math.Inf(1)})
	if q.ResponseMS != -1 {
		t.Fatalf("Inf mapped to %v, want -1", q.ResponseMS)
	}
	if q := gnutella.NewQueryRecord("x", 0, 0, 0, gnutella.QueryResult{FirstResponse: 42.5}); q.ResponseMS != 42.5 {
		t.Fatalf("finite response mangled: %v", q.ResponseMS)
	}

	var buf bytes.Buffer
	s := obs.NewStream(&buf)
	s.EmitQuery(q)
	if err := s.Err(); err != nil {
		t.Fatalf("emitting an unanswered query failed: %v", err)
	}
}

func TestDecoderRejectsTypelessRecord(t *testing.T) {
	_, err := obs.ReadAll(strings.NewReader("{}\n"))
	if err == nil {
		t.Fatal("typeless record decoded")
	}
}

// errWriter fails after n bytes, to exercise sticky errors.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	w.n -= len(p)
	return len(p), nil
}

func TestStreamStickyError(t *testing.T) {
	s := obs.NewStream(&errWriter{n: 1})
	s.EmitRound(core.StepReport{Probes: 1})
	s.EmitRound(core.StepReport{Probes: 2}) // dropped, must not panic
	if s.Err() == nil {
		t.Fatal("write error not surfaced")
	}
}
