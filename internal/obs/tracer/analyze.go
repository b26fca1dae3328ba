package tracer

import (
	"fmt"
	"io"
	"sort"
)

// Critical-path analysis over a Capture: per-round shard timelines
// (which shard straggled each phase, and how lopsided the round was)
// and per-query flood timelines (where a slow query's latency went,
// hop by hop along its deepest path). `acesim -trace-analyze` drives
// WriteReport; the structured forms are exported for tests and tooling.

// ShardLine is one shard's work inside one round.
type ShardLine struct {
	Track     int32
	Name      string
	BuildNs   int64
	SweepNs   int64
	ProposeNs int64
	Rebuilt   int64 // peers rebuilt (from KindShardBuild args)
	Proposed  int64 // proposals emitted (from KindShardPropose args)
}

// BusyNs is the shard's total attributed work in the round.
func (s ShardLine) BusyNs() int64 { return s.BuildNs + s.SweepNs + s.ProposeNs }

// RoundTimeline is the reconstructed schedule of one round.
type RoundTimeline struct {
	Round       int32
	PhaseNs     [3]int64 // indexed by PhaseRebuild/PhasePhase3/PhaseRepair
	Shards      []ShardLine
	Straggler   int32   // track id of the busiest shard (-1 when untracked)
	Imbalance   float64 // max shard busy / mean shard busy - 1 (0 for <2 shards)
	BuildReuse  int64
	BuildRepair int64
	BuildDense  int64
	FaultEvents int64 // retries, timeouts, stale transitions, blacklists, purges
}

// Hop is one edge of a query's deepest arrival path.
type Hop struct {
	From   int32
	To     int32
	AtMS   float64 // virtual arrival time at To
	CostMS float64 // AtMS(To) - AtMS(From): transit + queueing on this edge
}

// QueryTimeline is the reconstructed flood of one query GUID.
type QueryTimeline struct {
	GUID          uint64
	Round         int32
	Source        int32
	Scope         int64
	Transmissions int64
	Drops         int64
	Responses     int64
	FirstRespMS   float64 // -1 when no responder was hit
	DeepestMS     float64 // arrival time of the deepest-path terminus
	Path          []Hop   // source → deepest arrival
}

// AnalyzeRounds reconstructs per-round shard timelines from span events.
func AnalyzeRounds(c Capture) []RoundTimeline {
	byRound := map[int32]*RoundTimeline{}
	order := []int32{}
	get := func(round int32) *RoundTimeline {
		tl := byRound[round]
		if tl == nil {
			tl = &RoundTimeline{Round: round, Straggler: -1}
			byRound[round] = tl
			order = append(order, round)
		}
		return tl
	}
	shard := func(tl *RoundTimeline, track int32) *ShardLine {
		for i := range tl.Shards {
			if tl.Shards[i].Track == track {
				return &tl.Shards[i]
			}
		}
		tl.Shards = append(tl.Shards, ShardLine{Track: track, Name: c.Tracks[track]})
		return &tl.Shards[len(tl.Shards)-1]
	}
	for _, ev := range c.Events {
		switch ev.Kind {
		case KindRoundStart, KindPhase, KindShardBuild, KindShardSweep, KindShardPropose,
			KindMerge, KindBuildReuse, KindBuildRepair, KindBuildDense,
			KindProbeRetry, KindProbeTimeout, KindStaleServe, KindStaleExpire,
			KindStaleReadmit, KindBlacklist, KindCrashPurge, KindConnectFail:
		default:
			// Flood and churn events carry a round stamp too, but they
			// don't contribute a timeline row of their own — without
			// this guard a wrapped shard track would leave ghost rows
			// of zeros for rounds whose skeleton events were evicted.
			continue
		}
		tl := get(ev.Round)
		switch ev.Kind {
		case KindPhase:
			if ev.A >= 0 && int(ev.A) < len(tl.PhaseNs) {
				tl.PhaseNs[ev.A] += ev.Dur
			}
		case KindShardBuild:
			s := shard(tl, ev.Track)
			s.BuildNs += ev.Dur
			s.Rebuilt += int64(ev.A)
		case KindShardSweep:
			shard(tl, ev.Track).SweepNs += ev.Dur
		case KindShardPropose:
			s := shard(tl, ev.Track)
			s.ProposeNs += ev.Dur
			s.Proposed += int64(ev.A)
		case KindBuildReuse:
			tl.BuildReuse++
		case KindBuildRepair:
			tl.BuildRepair++
		case KindBuildDense:
			tl.BuildDense++
		case KindProbeRetry, KindProbeTimeout, KindStaleServe, KindStaleExpire,
			KindStaleReadmit, KindBlacklist, KindCrashPurge, KindConnectFail:
			tl.FaultEvents++
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]RoundTimeline, 0, len(order))
	for _, r := range order {
		tl := byRound[r]
		if n := len(tl.Shards); n > 0 {
			sort.Slice(tl.Shards, func(i, j int) bool { return tl.Shards[i].Track < tl.Shards[j].Track })
			var sum, max int64
			for _, s := range tl.Shards {
				b := s.BusyNs()
				sum += b
				if b >= max {
					max = b
					tl.Straggler = s.Track
				}
			}
			if n > 1 && sum > 0 {
				mean := float64(sum) / float64(n)
				tl.Imbalance = float64(max)/mean - 1
			}
		}
		out = append(out, *tl)
	}
	return out
}

// AnalyzeQueries reconstructs flood timelines, one per query GUID, in
// first-appearance order.
func AnalyzeQueries(c Capture) []QueryTimeline {
	type flood struct {
		tl   QueryTimeline
		at   map[int32]float64 // peer -> arrival ms
		from map[int32]int32   // peer -> sender (arrival back-pointer)
	}
	byGUID := map[uint64]*flood{}
	order := []uint64{}
	get := func(ev Event) *flood {
		f := byGUID[ev.GUID]
		if f == nil {
			f = &flood{
				tl:   QueryTimeline{GUID: ev.GUID, Round: ev.Round, Source: -1, FirstRespMS: -1},
				at:   map[int32]float64{},
				from: map[int32]int32{},
			}
			byGUID[ev.GUID] = f
			order = append(order, ev.GUID)
		}
		return f
	}
	for _, ev := range c.Events {
		if ev.GUID == 0 {
			continue
		}
		switch ev.Kind {
		case KindQueryBegin:
			f := get(ev)
			f.tl.Source = ev.A
			f.at[ev.A] = 0
			f.from[ev.A] = -1
		case KindQueryArrive:
			f := get(ev)
			if _, seen := f.at[ev.A]; !seen {
				f.at[ev.A] = ev.V
				f.from[ev.A] = ev.B
			}
		case KindQueryForward:
			get(ev).tl.Transmissions += int64(ev.B)
		case KindQueryDrop:
			get(ev).tl.Drops++
		case KindQueryRespond:
			f := get(ev)
			f.tl.Responses++
			if f.tl.FirstRespMS < 0 || ev.V < f.tl.FirstRespMS {
				f.tl.FirstRespMS = ev.V
			}
		case KindQueryEnd:
			f := get(ev)
			f.tl.Scope = int64(ev.A)
			if ev.B > 0 {
				f.tl.Transmissions = int64(ev.B)
			}
			if ev.V >= 0 {
				f.tl.FirstRespMS = ev.V
			}
		}
	}
	out := make([]QueryTimeline, 0, len(order))
	for _, guid := range order {
		f := byGUID[guid]
		// Deepest path: walk back-pointers from the latest arrival.
		deep, deepAt := int32(-1), -1.0
		for p, at := range f.at {
			if at > deepAt || (at == deepAt && p < deep) {
				deep, deepAt = p, at
			}
		}
		if deep >= 0 && deep != f.tl.Source {
			var rev []Hop
			for p := deep; ; {
				from, ok := f.from[p]
				if !ok || from < 0 {
					break
				}
				rev = append(rev, Hop{From: from, To: p, AtMS: f.at[p], CostMS: f.at[p] - f.at[from]})
				p = from
			}
			f.tl.DeepestMS = deepAt
			f.tl.Path = make([]Hop, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				f.tl.Path = append(f.tl.Path, rev[i])
			}
		}
		if f.tl.Scope == 0 {
			f.tl.Scope = int64(len(f.at))
		}
		out = append(out, f.tl)
	}
	return out
}

// WriteReport renders the analyzer's findings as a plain-text report:
// a per-round table naming the straggler shard, then the slowest
// queries decomposed hop by hop.
func WriteReport(w io.Writer, c Capture, topQueries int) error {
	rounds := AnalyzeRounds(c)
	queries := AnalyzeQueries(c)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }

	fmt.Fprintf(w, "trace %s: %d events, %d rounds, %d queries", FormatRunID(c.RunID), len(c.Events), len(rounds), len(queries))
	if c.Dropped > 0 {
		fmt.Fprintf(w, " (%d events dropped by ring wrap)", c.Dropped)
	}
	fmt.Fprintln(w)

	if len(rounds) > 0 {
		fmt.Fprintln(w, "\nper-round shard timeline:")
		fmt.Fprintf(w, "%6s %10s %10s %10s %8s %-12s %9s %s\n",
			"round", "rebuild ms", "phase3 ms", "repair ms", "shards", "straggler", "imbalance", "build reuse/repair/dense")
		for _, tl := range rounds {
			strag := "-"
			if tl.Straggler >= 0 {
				strag = c.Tracks[tl.Straggler]
				if strag == "" {
					strag = fmt.Sprintf("track %d", tl.Straggler)
				}
			}
			fmt.Fprintf(w, "%6d %10.3f %10.3f %10.3f %8d %-12s %8.1f%% %d/%d/%d\n",
				tl.Round, ms(tl.PhaseNs[PhaseRebuild]), ms(tl.PhaseNs[PhasePhase3]), ms(tl.PhaseNs[PhaseRepair]),
				len(tl.Shards), strag, tl.Imbalance*100,
				tl.BuildReuse, tl.BuildRepair, tl.BuildDense)
		}
		var fe int64
		for _, tl := range rounds {
			fe += tl.FaultEvents
		}
		if fe > 0 {
			fmt.Fprintf(w, "fault-reaction events across rounds: %d\n", fe)
		}
	}

	if len(queries) > 0 {
		sorted := append([]QueryTimeline(nil), queries...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].DeepestMS > sorted[j].DeepestMS })
		if topQueries <= 0 {
			topQueries = 3
		}
		if topQueries > len(sorted) {
			topQueries = len(sorted)
		}
		fmt.Fprintf(w, "\nslowest %d queries (by deepest-path arrival):\n", topQueries)
		for _, q := range sorted[:topQueries] {
			fmt.Fprintf(w, "  query %x (round %d, source %d): scope %d, %d transmissions, %d drops",
				q.GUID, q.Round, q.Source, q.Scope, q.Transmissions, q.Drops)
			if q.FirstRespMS >= 0 {
				fmt.Fprintf(w, ", first response %.3f ms", q.FirstRespMS)
			} else {
				fmt.Fprint(w, ", no response")
			}
			fmt.Fprintf(w, "; deepest path %.3f ms over %d hops\n", q.DeepestMS, len(q.Path))
			for _, h := range q.Path {
				fmt.Fprintf(w, "    %6d -> %-6d +%8.3f ms  (at %8.3f ms)\n", h.From, h.To, h.CostMS, h.AtMS)
			}
		}
	}
	return nil
}
