package tracer

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Export format. WriteChrome emits Chrome trace-event JSON — loadable
// directly in Perfetto (ui.perfetto.dev) or chrome://tracing, with one
// track (tid) per ring, so shards render as parallel swimlanes. It
// embeds the raw event fields in full, so ReadChrome round-trips a
// Capture exactly (pinned by TestChromeRoundTrip).

// chromeArgs carries the raw event fields through the Chrome "args"
// object: ts/dur are exported in microseconds (the format's unit), so
// the nanosecond originals ride here for lossless round-trips.
type chromeArgs struct {
	Kind  uint8   `json:"kind"`
	Round int32   `json:"round"`
	A     int32   `json:"a"`
	B     int32   `json:"b"`
	GUID  uint64  `json:"guid,omitempty"`
	V     float64 `json:"v,omitempty"`
	Ns    int64   `json:"ns"`
	DurNs int64   `json:"durNs,omitempty"`
	// Name carries the track name on "M" metadata records.
	Name string `json:"name,omitempty"`
}

type chromeEvent struct {
	Ph   string     `json:"ph"`
	Pid  int        `json:"pid"`
	Tid  int32      `json:"tid"`
	TS   float64    `json:"ts"`
	Dur  float64    `json:"dur,omitempty"`
	Name string     `json:"name"`
	S    string     `json:"s,omitempty"`
	Args chromeArgs `json:"args"`
}

type chromeFile struct {
	OtherData struct {
		RunID   string `json:"runId"`
		Dropped uint64 `json:"dropped,omitempty"`
	} `json:"otherData"`
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// exportName is the event's display name in trace viewers; round-trips
// go through args.kind, so names are free to be descriptive.
func exportName(ev Event) string {
	if ev.Kind == KindPhase {
		return "phase:" + PhaseName(ev.A)
	}
	return ev.Kind.String()
}

// WriteChrome writes c as Chrome trace-event JSON.
func WriteChrome(w io.Writer, c Capture) error {
	bw := bufio.NewWriter(w)
	var f chromeFile
	f.OtherData.RunID = FormatRunID(c.RunID)
	f.OtherData.Dropped = c.Dropped
	f.TraceEvents = make([]chromeEvent, 0, len(c.Events)+len(c.Tracks))
	for id, name := range c.Tracks {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Ph: "M", Tid: id, Name: "thread_name",
			Args: chromeArgs{Name: name},
		})
	}
	// Metadata order: map iteration is random; keep the file canonical.
	meta := f.TraceEvents
	for i := range meta {
		for j := i + 1; j < len(meta); j++ {
			if meta[j].Tid < meta[i].Tid {
				meta[i], meta[j] = meta[j], meta[i]
			}
		}
	}
	for _, ev := range c.Events {
		ce := chromeEvent{
			Pid: 0, Tid: ev.Track,
			TS:   float64(ev.TS) / 1e3,
			Name: exportName(ev),
			Args: chromeArgs{
				Kind: uint8(ev.Kind), Round: ev.Round, A: ev.A, B: ev.B,
				GUID: ev.GUID, V: ev.V, Ns: ev.TS, DurNs: ev.Dur,
			},
		}
		if ev.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(ev.Dur) / 1e3
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		f.TraceEvents = append(f.TraceEvents, ce)
	}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&f); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadChrome parses a WriteChrome file back into a Capture.
func ReadChrome(r io.Reader) (Capture, error) {
	var f chromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return Capture{}, fmt.Errorf("tracer: chrome trace: %w", err)
	}
	c := Capture{Tracks: make(map[int32]string)}
	c.RunID, _ = ParseRunID(f.OtherData.RunID)
	c.Dropped = f.OtherData.Dropped
	for _, ce := range f.TraceEvents {
		if ce.Ph == "M" {
			if ce.Name == "thread_name" {
				c.Tracks[ce.Tid] = ce.Args.Name
			}
			continue
		}
		c.Events = append(c.Events, Event{
			TS: ce.Args.Ns, Dur: ce.Args.DurNs,
			GUID: ce.Args.GUID, V: ce.Args.V,
			Round: ce.Args.Round, A: ce.Args.A, B: ce.Args.B,
			Track: ce.Tid, Kind: Kind(ce.Args.Kind),
		})
	}
	return c, nil
}

// FormatRunID renders a run id as the hex token embedded in exports and
// -metrics round lines.
func FormatRunID(id uint64) string { return strconv.FormatUint(id, 16) }

// ParseRunID parses FormatRunID's output.
func ParseRunID(s string) (uint64, error) { return strconv.ParseUint(s, 16, 64) }

// Handler serves the tracer's capture as Chrome trace-event JSON.
// `?rounds=N` windows the capture to the last N round sequences;
// without it the full retained trace is served. cmd/acesim mounts it at
// /debug/trace.
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !t.Enabled() && t.RoundSeq() == 0 {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			fmt.Fprintln(w, `{"enabled":false,"traceEvents":[]}`)
			return
		}
		minRound := int32(0)
		if s := req.URL.Query().Get("rounds"); s != "" {
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				http.Error(w, "tracer: rounds must be a positive integer", http.StatusBadRequest)
				return
			}
			if minRound = t.RoundSeq() - int32(n) + 1; minRound < 0 {
				minRound = 0
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = WriteChrome(w, t.CaptureSince(minRound))
	})
}
