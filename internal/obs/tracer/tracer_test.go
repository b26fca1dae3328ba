package tracer

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// newTestTracer returns a private enabled tracer so tests do not fight
// over the process-wide default.
func newTestTracer(capPerRing int) *Tracer {
	t := &Tracer{}
	t.Enable(capPerRing)
	return t
}

func TestRingWrapOverflow(t *testing.T) {
	tr := newTestTracer(8)
	r := tr.NewRing("w")
	for i := 0; i < 20; i++ {
		r.Record(Event{TS: int64(i), Kind: KindProbe, A: int32(i)})
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8 (ring capacity)", got)
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	c := tr.Capture()
	if len(c.Events) != 8 {
		t.Fatalf("capture kept %d events, want 8", len(c.Events))
	}
	if c.Dropped != 12 {
		t.Fatalf("capture Dropped = %d, want 12", c.Dropped)
	}
	// Oldest-first: the survivors are events 12..19.
	for i, ev := range c.Events {
		if want := int32(12 + i); ev.A != want {
			t.Fatalf("event %d: A = %d, want %d (oldest-first after wrap)", i, ev.A, want)
		}
	}
}

func TestCaptureMergesRingsInTimeOrder(t *testing.T) {
	tr := newTestTracer(16)
	a, b := tr.NewRing("shard 0"), tr.NewRing("shard 1")
	a.Record(Event{TS: 30, Kind: KindProbe})
	b.Record(Event{TS: 10, Kind: KindProbe})
	a.Record(Event{TS: 20, Kind: KindProbe})
	c := tr.Capture()
	if len(c.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(c.Events))
	}
	for i := 1; i < len(c.Events); i++ {
		if c.Events[i-1].TS > c.Events[i].TS {
			t.Fatalf("events out of time order at %d: %d > %d", i, c.Events[i-1].TS, c.Events[i].TS)
		}
	}
	if c.Tracks[a.ID()] != "shard 0" || c.Tracks[b.ID()] != "shard 1" {
		t.Fatalf("track names wrong: %v", c.Tracks)
	}
}

func TestCaptureSinceWindows(t *testing.T) {
	tr := newTestTracer(64)
	r := tr.NewRing("w")
	for round := int32(1); round <= 5; round++ {
		tr.BeginRound()
		r.Record(Event{TS: int64(round), Round: round, Kind: KindRoundStart})
	}
	c := tr.CaptureSince(4)
	if len(c.Events) != 2 {
		t.Fatalf("windowed capture kept %d events, want 2", len(c.Events))
	}
	for _, ev := range c.Events {
		if ev.Round < 4 {
			t.Fatalf("event from round %d leaked into window >= 4", ev.Round)
		}
	}
}

func TestEnableResetsGeneration(t *testing.T) {
	tr := newTestTracer(16)
	g1 := tr.Gen()
	r := tr.NewRing("w")
	r.Record(Event{TS: 1, Kind: KindProbe})
	id1 := tr.RunID()
	tr.Enable(16)
	if tr.Gen() == g1 {
		t.Fatal("Enable did not bump the generation")
	}
	if tr.RunID() == id1 {
		t.Fatal("Enable did not mint a fresh run id")
	}
	if got := len(tr.Capture().Events); got != 0 {
		t.Fatalf("re-Enable retained %d events from the prior generation", got)
	}
}

// roundTripCapture builds a capture exercising every field: spans,
// instants, GUIDs, negative ns values, multiple tracks.
func roundTripCapture() Capture {
	return Capture{
		RunID:   0xdeadbeef12345678,
		Dropped: 7,
		Tracks:  map[int32]string{0: "shard 0", 1: "flood"},
		Events: []Event{
			{TS: 1000, Dur: 500, Round: 1, A: PhaseRebuild, Track: 0, Kind: KindPhase},
			{TS: 1100, Round: 1, A: 3, B: 9, V: 42.5, Track: 0, Kind: KindProbe},
			{TS: 1200, Round: 1, GUID: 77, A: 5, B: 2, V: 1.25, Track: 1, Kind: KindQueryArrive},
			{TS: 1300, Dur: 250, Round: 2, A: 12, Track: 0, Kind: KindShardBuild},
			{TS: 1400, Round: 2, B: 8, V: 6, Track: 0, Kind: KindBlacklist},
		},
	}
}

func TestChromeRoundTrip(t *testing.T) {
	want := roundTripCapture()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, want); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	got, err := ReadChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadChrome: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("chrome round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Perfetto-loadability basics: the file is one JSON object with
	// traceEvents, ph/pid/tid/ts on each record, and thread_name metadata.
	s := buf.String()
	for _, frag := range []string{`"traceEvents"`, `"thread_name"`, `"ph":"X"`, `"ph":"i"`, `"ph":"M"`} {
		if !strings.Contains(s, frag) {
			t.Fatalf("chrome export missing %s:\n%s", frag, s)
		}
	}
}

func TestRunIDFormatRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		got, err := ParseRunID(FormatRunID(id))
		if err != nil || got != id {
			t.Fatalf("run id %x: parse(%q) = %x, %v", id, FormatRunID(id), got, err)
		}
	}
}

func TestHandlerWindowing(t *testing.T) {
	tr := newTestTracer(64)
	r := tr.NewRing("w")
	for round := int32(1); round <= 6; round++ {
		tr.BeginRound()
		r.Record(Event{TS: int64(round), Round: round, Kind: KindRoundStart})
	}
	h := Handler(tr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?rounds=2", nil))
	c, err := ReadChrome(rec.Body)
	if err != nil {
		t.Fatalf("handler output unparseable: %v", err)
	}
	if len(c.Events) != 2 {
		t.Fatalf("rounds=2 served %d events, want 2", len(c.Events))
	}
	for _, ev := range c.Events {
		if ev.Round < 5 {
			t.Fatalf("rounds=2 served round %d", ev.Round)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?rounds=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad rounds param: status %d, want 400", rec.Code)
	}

	disabled := &Tracer{}
	rec = httptest.NewRecorder()
	Handler(disabled).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if !strings.Contains(rec.Body.String(), `"enabled":false`) {
		t.Fatalf("disabled tracer response: %s", rec.Body.String())
	}
}

func TestFlightRecorderTriggers(t *testing.T) {
	dir := t.TempDir()
	tr := newTestTracer(256)
	r := tr.NewRing("w")
	fr := NewFlightRecorder(tr, FlightConfig{Dir: dir, Prefix: "fr"})

	feed := func(st RoundStats) (string, string, bool) {
		st.Round = tr.BeginRound()
		r.Record(Event{TS: tr.Now(), Round: st.Round, Kind: KindRoundStart})
		return fr.Note(st)
	}
	healthy := RoundStats{WallNanos: 1e6, SuccessRate: 0.9, RepairFallbacks: 1}

	// Baselines: no dumps while the window fills or stays healthy.
	for i := 0; i < 4; i++ {
		if _, trig, fired := feed(healthy); fired || trig != "" {
			t.Fatalf("healthy round %d fired %q", i, trig)
		}
	}

	// Repair-fallback spike: 20 > 3 × mean(≈1) and ≥ flightSpikeMin.
	spike := healthy
	spike.RepairFallbacks = 20
	path, trig, fired := feed(spike)
	if !fired || trig != "repair-fallback-spike" {
		t.Fatalf("spike round: fired=%v trigger=%q", fired, trig)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("dump file: %v", err)
	}
	defer f.Close()
	c, err := ReadChrome(f)
	if err != nil {
		t.Fatalf("dump unparseable: %v", err)
	}
	if len(c.Events) == 0 {
		t.Fatal("dump contains no events")
	}
	if want := filepath.Join(dir, "fr-round5-repair-fallback-spike.json"); path != want {
		t.Fatalf("dump path %q, want %q", path, want)
	}

	// Cooldown: the same anomaly right after does not dump again.
	if _, _, fired := feed(spike); fired {
		t.Fatal("cooldown did not suppress the second dump")
	}

	// Success-rate drop on a fresh recorder (the spike polluted baselines).
	fr2 := NewFlightRecorder(tr, FlightConfig{Dir: dir, Prefix: "fr2"})
	for i := 0; i < 3; i++ {
		fr2.Note(RoundStats{Round: tr.BeginRound(), WallNanos: 1e6, SuccessRate: 0.9})
	}
	_, trig, fired = fr2.Note(RoundStats{Round: tr.BeginRound(), WallNanos: 1e6, SuccessRate: 0.5})
	if !fired || trig != "success-drop" {
		t.Fatalf("success drop: fired=%v trigger=%q", fired, trig)
	}
}

func TestAnalyzeRounds(t *testing.T) {
	c := Capture{
		Tracks: map[int32]string{0: "shard 0", 1: "shard 1"},
		Events: []Event{
			{TS: 0, Round: 1, A: 200, Kind: KindRoundStart},
			{TS: 10, Dur: 1000, Round: 1, A: PhaseRebuild, Kind: KindPhase},
			{TS: 20, Dur: 300, Round: 1, A: 5, Track: 0, Kind: KindShardBuild},
			{TS: 20, Dur: 700, Round: 1, A: 9, Track: 1, Kind: KindShardBuild},
			{TS: 1100, Dur: 400, Round: 1, A: PhasePhase3, Kind: KindPhase},
			{TS: 1150, Dur: 100, Round: 1, A: 4, Track: 0, Kind: KindShardPropose},
			{TS: 1150, Dur: 100, Round: 1, A: 4, Track: 1, Kind: KindShardPropose},
			{TS: 1500, Dur: 50, Round: 1, A: 3, Kind: KindMerge},
			{TS: 1600, Round: 1, A: 7, Kind: KindBuildRepair},
			{TS: 1700, Round: 1, A: 8, Kind: KindProbeTimeout},
		},
	}
	rounds := AnalyzeRounds(c)
	if len(rounds) != 1 {
		t.Fatalf("got %d rounds, want 1", len(rounds))
	}
	tl := rounds[0]
	if tl.Straggler != 1 {
		t.Fatalf("straggler = track %d, want 1 (700+100 > 300+100)", tl.Straggler)
	}
	// busy: shard0 = 400, shard1 = 800; mean 600; 800/600 - 1 = 1/3.
	if got := tl.Imbalance; got < 0.32 || got > 0.34 {
		t.Fatalf("imbalance = %v, want ~0.333", got)
	}
	if tl.PhaseNs[PhaseRebuild] != 1000 || tl.PhaseNs[PhasePhase3] != 400 {
		t.Fatalf("phase durations wrong: %v", tl.PhaseNs)
	}
	if tl.BuildRepair != 1 || tl.FaultEvents != 1 {
		t.Fatalf("decision/fault counts wrong: %+v", tl)
	}
}

func TestAnalyzeQueries(t *testing.T) {
	// Flood: 100 -> 101 (1.5ms) -> 102 (4.0ms), plus 100 -> 103 (2.0ms).
	c := Capture{
		Tracks: map[int32]string{0: "flood"},
		Events: []Event{
			{TS: 0, GUID: 9, Round: 2, A: 100, Kind: KindQueryBegin},
			{TS: 1, GUID: 9, Round: 2, A: 100, B: 2, V: 0, Kind: KindQueryForward},
			{TS: 2, GUID: 9, Round: 2, A: 101, B: 100, V: 1.5, Kind: KindQueryArrive},
			{TS: 3, GUID: 9, Round: 2, A: 103, B: 100, V: 2.0, Kind: KindQueryArrive},
			{TS: 4, GUID: 9, Round: 2, A: 101, B: 1, V: 1.5, Kind: KindQueryForward},
			{TS: 5, GUID: 9, Round: 2, A: 102, B: 101, V: 4.0, Kind: KindQueryArrive},
			{TS: 6, GUID: 9, Round: 2, A: 103, V: 4.0, Kind: KindQueryRespond},
			{TS: 7, GUID: 9, Round: 2, A: 4, B: 3, V: 4.0, Kind: KindQueryEnd},
		},
	}
	qs := AnalyzeQueries(c)
	if len(qs) != 1 {
		t.Fatalf("got %d queries, want 1", len(qs))
	}
	q := qs[0]
	if q.Source != 100 || q.Scope != 4 || q.Transmissions != 3 {
		t.Fatalf("query summary wrong: %+v", q)
	}
	if q.FirstRespMS != 4.0 || q.Responses != 1 {
		t.Fatalf("response stats wrong: %+v", q)
	}
	if q.DeepestMS != 4.0 || len(q.Path) != 2 {
		t.Fatalf("deepest path wrong: at %v over %d hops", q.DeepestMS, len(q.Path))
	}
	want := []Hop{
		{From: 100, To: 101, AtMS: 1.5, CostMS: 1.5},
		{From: 101, To: 102, AtMS: 4.0, CostMS: 2.5},
	}
	if !reflect.DeepEqual(q.Path, want) {
		t.Fatalf("path:\n got %+v\nwant %+v", q.Path, want)
	}
}

func TestWriteReportNamesStragglerAndHops(t *testing.T) {
	c := Capture{
		RunID:  42,
		Tracks: map[int32]string{0: "shard 0", 1: "shard 1", 2: "flood"},
		Events: []Event{
			{TS: 10, Dur: 1000, Round: 1, A: PhaseRebuild, Kind: KindPhase},
			{TS: 20, Dur: 300, Round: 1, A: 5, Track: 0, Kind: KindShardBuild},
			{TS: 20, Dur: 900, Round: 1, A: 9, Track: 1, Kind: KindShardBuild},
			{TS: 30, GUID: 1, Round: 1, A: 100, Track: 2, Kind: KindQueryBegin},
			{TS: 31, GUID: 1, Round: 1, A: 101, B: 100, V: 2.5, Track: 2, Kind: KindQueryArrive},
		},
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, c, 3); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "shard 1") {
		t.Fatalf("report does not name the straggler shard:\n%s", out)
	}
	if !strings.Contains(out, "100 -> 101") {
		t.Fatalf("report does not decompose the query hop:\n%s", out)
	}
}
