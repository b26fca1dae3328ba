package core

import (
	"reflect"
	"testing"

	"ace/internal/fault"
	"ace/internal/obs"
)

// TestObsEnabledDoesNotPerturb pins the observability layer's core
// contract: enabling the registry changes nothing but the registry.
// Two identically seeded systems run the same churn workload — one with
// instrumentation recording, one with it off — and every StepReport
// (timing stripped) and every overlay edge must agree bit for bit.
// Instrumentation reads simulation state; it never touches an RNG
// stream, reorders events, or feeds a value back in.
func TestObsEnabledDoesNotPerturb(t *testing.T) {
	const seed = 77
	const rounds = 60
	cfg := DefaultConfig(1)

	run := func(enabled bool) (reports []StepReport, edges any) {
		if enabled {
			obs.Enable()
			defer obs.Disable()
		} else {
			obs.Disable()
		}
		s := newDiffSide(t, seed, cfg)
		for r := 0; r < rounds; r++ {
			s.churnStep(2)
			reports = append(reports, stripTiming(s.opt.Round(s.round)))
		}
		return reports, s.net.SnapshotEdges()
	}

	offReports, offEdges := run(false)
	onReports, onEdges := run(true)

	for r := range offReports {
		if offReports[r] != onReports[r] {
			t.Fatalf("round %d: obs-enabled report diverged\noff: %+v\non:  %+v",
				r, offReports[r], onReports[r])
		}
	}
	if !reflect.DeepEqual(offEdges, onEdges) {
		t.Fatal("obs-enabled run produced a different overlay")
	}
}

// TestReportCountersSumReports pins the counters StepReport's obs tags
// declare: over 20 churned, faulty rounds with crash debris, each tagged
// counter, looked up by its tag in the registry snapshot, must grow by
// exactly the sum of its field over the rounds' reports.
func TestReportCountersSumReports(t *testing.T) {
	const rounds = 20
	obs.Enable()
	defer obs.Disable()
	counters := func() map[string]int64 {
		m := map[string]int64{}
		for _, s := range obs.Default().Snapshot() {
			m[s.Name] = s.Value
		}
		return m
	}

	s := newDiffSide(t, 20260808, DefaultConfig(2))
	s.net.SetFaults(newInjector(t, fault.Plan{
		Seed:                 99,
		ProbeTimeoutRate:     0.25,
		ConnectFailRate:      0.3,
		UnresponsiveFraction: 0.25,
		UnresponsivePeriod:   6,
	}))
	before := counters()
	sums := map[string]int64{}
	for r := 0; r < rounds; r++ {
		churnFaultStep(s, r)
		rep := reflect.ValueOf(s.opt.Round(s.round))
		for i := 0; i < rep.NumField(); i++ {
			if name, ok := rep.Type().Field(i).Tag.Lookup("obs"); ok {
				sums[name] += rep.Field(i).Int()
			}
		}
	}
	after := counters()

	if len(sums) == 0 {
		t.Fatal("StepReport carries no obs tags")
	}
	for name, sum := range sums {
		if sum == 0 {
			t.Errorf("%s: no round moved it; the workload checks nothing", name)
		}
		if got := after[name] - before[name]; got != sum {
			t.Errorf("%s grew by %d, want %d (the reports' sum)", name, got, sum)
		}
	}
}
