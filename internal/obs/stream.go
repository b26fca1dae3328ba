package obs

import (
	"encoding/json"
	"errors"
	"io"
	"sync"
)

// Record is one decoded stream line: exactly one of the payload fields
// is set, per Type. The stream declares no round or query field: a
// round or query payload is whatever value its producer emitted, kept
// raw here for each reader to unmarshal into its own type.
type Record struct {
	Type  string          `json:"type"` // "round" | "query" | "snapshot"
	Round json.RawMessage `json:"round,omitempty"`
	Query json.RawMessage `json:"query,omitempty"`
	// Snapshot carries a registry dump (one line per Stream.Snapshot
	// call), typically emitted once at the end of a run.
	Snapshot []Snapshot `json:"snapshot,omitempty"`
}

// Stream encodes round/query records as JSON lines onto a writer. It is
// safe for concurrent use; each record is one atomic line. Errors are
// sticky: the first write error is kept and later emits are dropped, so
// hot loops do not need per-record error plumbing (check Err once at the
// end).
type Stream struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewStream returns a stream writing JSONL to w.
func NewStream(w io.Writer) *Stream {
	return &Stream{enc: json.NewEncoder(w)}
}

// line is a record as written: its round or query payload is the
// caller's value, encoded in place.
type line struct {
	Type     string     `json:"type"`
	Round    any        `json:"round,omitempty"`
	Query    any        `json:"query,omitempty"`
	Snapshot []Snapshot `json:"snapshot,omitempty"`
}

// EmitRound writes one round record with r as its payload.
func (s *Stream) EmitRound(r any) { s.emit(line{Type: "round", Round: r}) }

// EmitQuery writes one query record with q as its payload.
func (s *Stream) EmitQuery(q any) { s.emit(line{Type: "query", Query: q}) }

// EmitSnapshot writes a registry snapshot record.
func (s *Stream) EmitSnapshot(snaps []Snapshot) { s.emit(line{Type: "snapshot", Snapshot: snaps}) }

func (s *Stream) emit(l line) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(l)
}

// Err returns the first write error, if any.
func (s *Stream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Decoder reads a JSONL stream back, record by record.
type Decoder struct {
	dec *json.Decoder
}

// NewDecoder returns a decoder over r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{dec: json.NewDecoder(r)}
}

// Next returns the next record, or io.EOF at end of stream.
func (d *Decoder) Next() (Record, error) {
	var rec Record
	err := d.dec.Decode(&rec)
	if err != nil {
		return Record{}, err
	}
	if rec.Type == "" {
		return Record{}, errors.New("obs: stream record missing type")
	}
	return rec, nil
}

// ReadAll drains the stream into a slice (test and small-file helper).
func ReadAll(r io.Reader) ([]Record, error) {
	d := NewDecoder(r)
	var out []Record
	for {
		rec, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
