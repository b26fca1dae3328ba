package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"ace/internal/core"
	"ace/internal/gnutella"
	"ace/internal/obs"
)

// TestMeasureQueriesStreamTee pins the event-stream tee: with a Stream
// attached, MeasureQueries emits one decodable QueryRecord per query, in
// index order (the parallel fold must not leak worker scheduling into
// the JSONL), carrying the same numbers the aggregate sees — and the
// measured sample itself is identical with and without the tee.
func TestMeasureQueriesStreamTee(t *testing.T) {
	const n = 16
	build := func() *Env {
		env, err := BuildEnv(11, testScale, 6)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}

	plain := build()
	bare := plain.MeasureQueries(core.BlindFlooding{Net: plain.Net}, n, "tee")

	var buf bytes.Buffer
	teed := build()
	teed.Stream = obs.NewStream(&buf)
	teed.Round = 7
	teedSample := teed.MeasureQueries(core.BlindFlooding{Net: teed.Net}, n, "tee")
	if err := teed.Stream.Err(); err != nil {
		t.Fatal(err)
	}

	if bare != teedSample {
		t.Fatalf("tee changed the sample:\nbare: %+v\nteed: %+v", bare, teedSample)
	}

	recs, err := obs.ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("decoded %d records, want %d", len(recs), n)
	}
	var traffic, scope float64
	for i, rec := range recs {
		var q gnutella.QueryRecord
		if rec.Type != "query" || json.Unmarshal(rec.Query, &q) != nil {
			t.Fatalf("record %d: not a query record: %+v", i, rec)
		}
		if q.Index != i {
			t.Fatalf("record %d carries index %d: stream not in index order", i, q.Index)
		}
		if q.Label != "tee" || q.Round != 7 {
			t.Fatalf("record %d mislabeled: %+v", i, q)
		}
		if q.Scope <= 0 || q.Transmissions <= 0 {
			t.Fatalf("record %d has empty flood: %+v", i, q)
		}
		traffic += q.TrafficCost
		scope += float64(q.Scope)
	}
	// The per-query records must sum to what the aggregate averaged.
	if got, want := traffic/n, teedSample.Traffic.Mean(); got != want {
		t.Fatalf("stream traffic mean %v != sample mean %v", got, want)
	}
	if got, want := scope/n, teedSample.Scope.Mean(); got != want {
		t.Fatalf("stream scope mean %v != sample mean %v", got, want)
	}
}
