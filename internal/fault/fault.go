// Package fault is the deterministic fault model: a seed-derived Plan of
// per-peer unresponsive windows, per-link message loss and delay jitter,
// probe-timeout and connection-failure injection, consulted by every
// engine layer through a nil-safe Injector.
//
// Design constraints, in priority order:
//
//  1. A nil *Injector is a valid injector that injects nothing. Every
//     method has a nil receiver fast path, so engine hot paths call the
//     injector unconditionally and pay one predicted branch when no fault
//     plan is attached — the same discipline obs established (pinned by
//     TestFaultNilInjectorDoesNotPerturb in internal/core).
//  2. Fault decisions are pure functions of (plan seed, domain, entity
//     ids, attempt/sequence numbers) — stateless splitmix64 hashes, no
//     RNG stream. The same plan and seed reproduce the identical fault
//     schedule regardless of evaluation order, which keeps the parallel
//     query-measurement path bit-identical to serial and race-free.
//  3. The schedule is independent of the simulation's own RNG streams:
//     attaching an injector perturbs no draw any existing component
//     makes.
//
// The one piece of mutable state is the round counter (Advance), which
// scopes unresponsive windows and probe-timeout draws to protocol rounds;
// it is atomic so concurrent readers under the race detector stay clean.
package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"

	"ace/internal/obs"
	"ace/internal/sim"
)

// Plan is one deterministic fault schedule. The zero Plan injects
// nothing; every knob defaults off so attaching a zero plan leaves runs
// bit-identical to no plan at all. Plans are JSON-encodable for
// `acesim -faults plan.json`.
type Plan struct {
	// Seed roots every fault hash. Two injectors with the same Plan
	// produce the identical fault schedule.
	Seed int64 `json:"seed"`

	// LossRate is the probability that one flood message is lost in
	// transit: the sender pays the transmission (it cannot know), the
	// delivery never happens.
	LossRate float64 `json:"loss_rate,omitempty"`
	// DelayJitter scales each message's transit time by a deterministic
	// per-message factor uniform in [1−j, 1+j]. It perturbs arrival
	// times only, never the traffic-cost accounting.
	DelayJitter float64 `json:"delay_jitter,omitempty"`
	// ProbeTimeoutRate is the per-attempt probability that a delay probe
	// gets no answer (independent of the target's unresponsive windows,
	// which also time probes out).
	ProbeTimeoutRate float64 `json:"probe_timeout_rate,omitempty"`
	// ConnectFailRate is the probability that one Phase-3 or bootstrap
	// connection attempt fails after the dial.
	ConnectFailRate float64 `json:"connect_fail_rate,omitempty"`

	// UnresponsiveFraction is the share of peers unresponsive in any
	// given window: such a peer answers no probes for a whole window of
	// UnresponsivePeriod rounds (the host is up but overloaded or
	// NATed — Saroiu's "unreachable hosts"). Which peers are affected
	// rotates per window, deterministically from the seed.
	UnresponsiveFraction float64 `json:"unresponsive_fraction,omitempty"`
	// UnresponsivePeriod is the window length in rounds; 0 selects
	// DefaultUnresponsivePeriod.
	UnresponsivePeriod int `json:"unresponsive_period,omitempty"`

	// CrashFraction mirrors churn.Model.CrashFraction for plan files:
	// the share of departures that are crash-failures instead of
	// graceful leaves. The injector itself never consults it — crashes
	// are a churn-side decision — but acesim and the sweeps read it from
	// loaded plans.
	CrashFraction float64 `json:"crash_fraction,omitempty"`
}

// DefaultUnresponsivePeriod is the unresponsive-window length in rounds
// when the plan leaves it zero.
const DefaultUnresponsivePeriod = 8

// Active reports whether the plan can inject anything at all.
func (p Plan) Active() bool {
	return p.LossRate > 0 || p.DelayJitter > 0 || p.ProbeTimeoutRate > 0 ||
		p.ConnectFailRate > 0 || p.UnresponsiveFraction > 0 || p.CrashFraction > 0
}

func (p Plan) validate() error {
	rates := []struct {
		name string
		v    float64
	}{
		{"loss_rate", p.LossRate},
		{"probe_timeout_rate", p.ProbeTimeoutRate},
		{"connect_fail_rate", p.ConnectFailRate},
		{"unresponsive_fraction", p.UnresponsiveFraction},
		{"crash_fraction", p.CrashFraction},
	}
	for _, r := range rates {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0,1]", r.name, r.v)
		}
	}
	if p.DelayJitter < 0 || p.DelayJitter >= 1 {
		return fmt.Errorf("fault: delay_jitter %v outside [0,1)", p.DelayJitter)
	}
	if p.UnresponsivePeriod < 0 {
		return fmt.Errorf("fault: negative unresponsive_period")
	}
	return nil
}

// LoadPlan reads a JSON plan file (the acesim -faults format).
func LoadPlan(path string) (Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, err
	}
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, fmt.Errorf("fault: %s: %w", path, err)
	}
	if err := p.validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Injector evaluates a Plan. All methods are safe on a nil receiver
// (inject nothing) and safe for concurrent use: decisions are pure
// hashes, and the only mutable state is the atomic round counter.
//
// Injected-fault counters are per-instance and always-on (the physical
// oracle's pattern), so a run with -metrics surfaces them in the final
// snapshot without requiring the registry enabled during the run.
type Injector struct {
	plan   Plan
	period int64
	round  atomic.Int64

	cLost    *obs.Counter
	cProbeTO *obs.Counter
	cConnect *obs.Counter
}

// NewInjector validates the plan and returns an injector for it.
func NewInjector(plan Plan) (*Injector, error) {
	if err := plan.validate(); err != nil {
		return nil, err
	}
	period := plan.UnresponsivePeriod
	if period == 0 {
		period = DefaultUnresponsivePeriod
	}
	return &Injector{
		plan:     plan,
		period:   int64(period),
		cLost:    obs.NewAlwaysCounter("ace.fault.injected.msg_lost"),
		cProbeTO: obs.NewAlwaysCounter("ace.fault.injected.probe_timeouts"),
		cConnect: obs.NewAlwaysCounter("ace.fault.injected.connect_failures"),
	}, nil
}

// Plan returns the injector's plan (zero Plan for a nil injector).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Advance moves the injector to the given protocol round, scoping the
// unresponsive windows and probe-timeout draws that follow.
func (in *Injector) Advance(round int) {
	if in == nil {
		return
	}
	in.round.Store(int64(round))
}

// Round reports the current protocol round.
func (in *Injector) Round() int {
	if in == nil {
		return 0
	}
	return int(in.round.Load())
}

// Domain tags keep the per-purpose hash streams decorrelated.
const (
	domLoss uint64 = 0x6c6f7373 + iota // "loss"
	domJitter
	domProbe
	domUnresponsive
	domConnect
	domNonce
)

// hash3 chains three words onto the plan seed and a domain tag, one
// sim.SplitMix64 round per mixed-in word.
func (in *Injector) hash3(dom, a, b, c uint64) uint64 {
	z := uint64(in.plan.Seed) ^ sim.SplitMix64(dom)
	z = sim.SplitMix64(z + sim.Golden*(a+1))
	z = sim.SplitMix64(z + sim.Golden*(b+1))
	z = sim.SplitMix64(z + sim.Golden*(c+1))
	return z
}

// u01 maps a hash to a uniform float in [0, 1).
func u01(h uint64) float64 { return float64(h>>11) * (1.0 / (1 << 53)) }

// Nonce derives a per-flood fault nonce from a query identifier (the
// source peer), decorrelating one flood's loss pattern from another's.
func Nonce(id uint64) uint64 { return sim.SplitMix64(id*sim.Golden + domNonce) }

// DropMessage reports whether the message (nonce, from→to, seq within
// its flood) is lost in transit. The caller accounts the send either
// way — the sender cannot observe the loss.
func (in *Injector) DropMessage(nonce uint64, from, to int, seq uint32) bool {
	if in == nil || in.plan.LossRate <= 0 {
		return false
	}
	h := in.hash3(domLoss^nonce, uint64(from), uint64(to), uint64(seq))
	if u01(h) >= in.plan.LossRate {
		return false
	}
	in.cLost.Inc()
	return true
}

// TransitDelay returns the jittered transit time for a message whose
// nominal cost is c. Only the delivery schedule moves; traffic-cost
// accounting keeps the nominal value.
func (in *Injector) TransitDelay(c float64, nonce uint64, from, to int, seq uint32) float64 {
	if in == nil || in.plan.DelayJitter <= 0 {
		return c
	}
	j := in.plan.DelayJitter
	h := in.hash3(domJitter^nonce, uint64(from), uint64(to), uint64(seq))
	return c * (1 - j + 2*j*u01(h))
}

// Unresponsive reports whether p answers no probes in the current
// round's window. Membership is stable for a whole window and rotates
// deterministically between windows.
func (in *Injector) Unresponsive(p int) bool {
	if in == nil || in.plan.UnresponsiveFraction <= 0 {
		return false
	}
	window := uint64(in.round.Load() / in.period)
	h := in.hash3(domUnresponsive, uint64(p), window, 0)
	return u01(h) < in.plan.UnresponsiveFraction
}

// ProbeTimeout reports whether prober's delay probe of target times out
// on the given attempt (0 = first try, 1.. = retries). A probe of an
// unresponsive target always times out; otherwise each attempt is an
// independent ProbeTimeoutRate draw, fresh per round.
func (in *Injector) ProbeTimeout(prober, target, attempt int) bool {
	if in == nil {
		return false
	}
	if in.Unresponsive(target) {
		in.cProbeTO.Inc()
		return true
	}
	if in.plan.ProbeTimeoutRate <= 0 {
		return false
	}
	r := uint64(in.round.Load())
	h := in.hash3(domProbe, uint64(prober), uint64(target), r*257+uint64(attempt))
	if u01(h) >= in.plan.ProbeTimeoutRate {
		return false
	}
	in.cProbeTO.Inc()
	return true
}

// ConnectFails reports whether dialer's connection attempt to target
// fails. An unresponsive target refuses every dial; otherwise each
// attempt is an independent ConnectFailRate draw, fresh per round.
func (in *Injector) ConnectFails(dialer, target int) bool {
	if in == nil {
		return false
	}
	if in.Unresponsive(target) {
		in.cConnect.Inc()
		return true
	}
	if in.plan.ConnectFailRate <= 0 {
		return false
	}
	r := uint64(in.round.Load())
	h := in.hash3(domConnect, uint64(dialer), uint64(target), r)
	if u01(h) >= in.plan.ConnectFailRate {
		return false
	}
	in.cConnect.Inc()
	return true
}

// Stats is a point-in-time count of injected faults.
type Stats struct {
	MessagesLost    uint64
	ProbeTimeouts   uint64
	ConnectFailures uint64
}

// Stats reports how many faults this injector has injected.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		MessagesLost:    in.cLost.Value(),
		ProbeTimeouts:   in.cProbeTO.Value(),
		ConnectFailures: in.cConnect.Value(),
	}
}
