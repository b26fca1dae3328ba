package tracer

import (
	"fmt"
	"os"
	"path/filepath"
)

// FlightRecorder is the always-on cheap capture mode: the tracer runs
// with small rings (the last few rounds of events survive by
// construction), and the driver feeds one RoundStats per round. When an
// anomaly trigger fires, the recorder dumps the retained window as a
// Chrome trace file and arms a cooldown so one incident produces one
// dump, not one per round.
//
// Triggers:
//
//   - success-rate drop: the round's query success rate fell more than
//     flightSuccessDrop below the trailing mean;
//   - counter spikes (repair fallbacks, probe timeouts): the value is at
//     least flightSpikeMin AND more than flightSpikeFactor times the
//     trailing mean;
//   - round wall time: more than flightWallFactor times the trailing
//     mean.
//
// Trailing means cover the last flightWindow rounds and triggers stay
// disarmed until flightMinRounds baselines exist, so startup transients
// do not dump.
type FlightRecorder struct {
	t   *Tracer
	cfg FlightConfig

	hist     []RoundStats // trailing window, oldest first
	cooldown int32        // no dumps until the round sequence passes this
	dumps    int
	err      error // first dump-write failure, sticky
}

// The flight recorder's thresholds.
const (
	flightWindow      = 8    // rounds retained for baselines and dumps
	flightMinRounds   = 3    // baseline rounds before triggers arm
	flightSuccessDrop = 0.15 // absolute success-rate drop vs trailing mean
	flightSpikeFactor = 3    // counter spike = value > factor × trailing mean
	flightSpikeMin    = 8    // counter spike floor, absolute
	flightWallFactor  = 4    // wall-time spike multiplier
	flightMaxDumps    = 4    // cap on dump files per run
)

// FlightConfig says where the flight recorder writes its dumps.
type FlightConfig struct {
	Dir    string // dump directory (default: the working directory)
	Prefix string // dump filename prefix (default "flight")
}

// RoundStats is the driver-side per-round summary the recorder watches.
// SuccessRate is the fraction of sampled queries answered (negative
// when the round sampled none — the trigger skips it).
type RoundStats struct {
	Round           int32 // tracer round sequence (Tracer.RoundSeq())
	WallNanos       int64
	SuccessRate     float64
	RepairFallbacks int
	ProbeTimeouts   int
}

// NewFlightRecorder attaches a recorder to t. The tracer must already
// be enabled (typically with FlightCapacity rings).
func NewFlightRecorder(t *Tracer, cfg FlightConfig) *FlightRecorder {
	if cfg.Prefix == "" {
		cfg.Prefix = "flight"
	}
	return &FlightRecorder{t: t, cfg: cfg}
}

// mean returns the trailing mean of one stat over the recorder's window
// via the extractor f, and whether enough baselines exist.
func (f *FlightRecorder) mean(get func(RoundStats) float64) (float64, bool) {
	if len(f.hist) < flightMinRounds {
		return 0, false
	}
	sum, n := 0.0, 0
	for _, st := range f.hist {
		v := get(st)
		if v < 0 {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// spiked reports whether v is a spike over the trailing mean of get.
func (f *FlightRecorder) spiked(v int, get func(RoundStats) float64) bool {
	if v < flightSpikeMin {
		return false
	}
	m, ok := f.mean(get)
	return ok && float64(v) > flightSpikeFactor*m
}

// Note feeds one completed round. When a trigger fires it dumps the
// retained trace window to a Chrome trace file and reports the path and
// the trigger name; otherwise fired is false.
func (f *FlightRecorder) Note(st RoundStats) (path, trigger string, fired bool) {
	trigger = f.trigger(st)
	// The observed round joins the baseline either way; a dumped
	// anomaly that persists becomes the new normal instead of dumping
	// every round after the cooldown.
	f.hist = append(f.hist, st)
	if len(f.hist) > flightWindow {
		f.hist = f.hist[1:]
	}
	if trigger == "" || st.Round <= f.cooldown || f.dumps >= flightMaxDumps {
		return "", trigger, false
	}
	path, err := f.dump(st.Round, trigger)
	if err != nil {
		return "", trigger, false
	}
	f.cooldown = st.Round + flightWindow
	f.dumps++
	return path, trigger, true
}

// trigger names the first firing trigger, or "".
func (f *FlightRecorder) trigger(st RoundStats) string {
	if st.SuccessRate >= 0 {
		if m, ok := f.mean(func(s RoundStats) float64 { return s.SuccessRate }); ok && m-st.SuccessRate > flightSuccessDrop {
			return "success-drop"
		}
	}
	if f.spiked(st.RepairFallbacks, func(s RoundStats) float64 { return float64(s.RepairFallbacks) }) {
		return "repair-fallback-spike"
	}
	if f.spiked(st.ProbeTimeouts, func(s RoundStats) float64 { return float64(s.ProbeTimeouts) }) {
		return "probe-timeout-spike"
	}
	if st.WallNanos > 0 {
		if m, ok := f.mean(func(s RoundStats) float64 { return float64(s.WallNanos) }); ok && m > 0 && float64(st.WallNanos) > flightWallFactor*m {
			return "wall-time"
		}
	}
	return ""
}

// dump writes the last-flightWindow-rounds capture to a Chrome trace
// file.
func (f *FlightRecorder) dump(round int32, trigger string) (string, error) {
	minRound := max(round-flightWindow+1, 0)
	path := filepath.Join(f.cfg.Dir, fmt.Sprintf("%s-round%d-%s.json", f.cfg.Prefix, round, trigger))
	out, err := os.Create(path)
	if err != nil {
		f.setErr(err)
		return "", err
	}
	if err := WriteChrome(out, f.t.CaptureSince(minRound)); err != nil {
		out.Close()
		os.Remove(path) // never leave a torn dump behind
		f.setErr(err)
		return "", err
	}
	if err := out.Close(); err != nil {
		os.Remove(path)
		f.setErr(err)
		return "", err
	}
	return path, nil
}

func (f *FlightRecorder) setErr(err error) {
	if f.err == nil {
		f.err = err
	}
}

// Err returns the first dump-write failure, nil while every dump (if
// any) landed intact. A failed dump is deleted rather than left
// partial, so callers treating dumps as a sink can surface this error
// and exit nonzero without risking a torn trace on disk.
func (f *FlightRecorder) Err() error { return f.err }

// Dumps reports how many dump files the recorder has written.
func (f *FlightRecorder) Dumps() int { return f.dumps }
