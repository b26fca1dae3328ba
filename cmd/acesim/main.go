// Command acesim builds one simulated P2P deployment and reports what
// ACE does to it: per-step traffic cost, response time, search scope and
// overlay statistics, for any policy and closure depth.
//
// Usage:
//
//	acesim -peers 2000 -phys 5000 -c 10 -h 1 -steps 12 -policy random
//
// Observability:
//
//	-v              per-round phase timings and query means on stderr-free stdout
//	-metrics f.jsonl  per-round and per-query records as JSON lines (obs.Stream);
//	                implies instrumentation so the final snapshot carries counters
//	-debug :6060    live endpoint: net/http/pprof under /debug/pprof/, a
//	                registry snapshot under /debug/obs, and a windowed causal
//	                trace under /debug/trace?rounds=N (enables instrumentation)
//	-trace out.json   record a causal trace of the whole run as Chrome trace-event
//	                JSON (load in Perfetto). Implies the flight recorder with dump
//	                prefix <out>.flight
//	-flight prefix  always-on flight recorder alone: small rings, no full trace
//	                file, auto-dumps <prefix>-round<N>-<trigger>.json on anomalies
//	-trace-analyze f  load a -trace file, print the critical-path
//	                report (per-round straggler shards, slowest queries hop by
//	                hop), and exit
//
// Fault injection (deterministic, seed-derived):
//
//	-faults plan.json  load a full fault plan (loss, jitter, timeouts, …);
//	                   a zero plan seed inherits -seed
//	-loss 0.05      shorthand: 5% message loss, probe timeout, connect failure
//	-crash 0.25     25% of churned-out peers crash (half-open edges) instead
//	                of leaving gracefully
//	-churnpeers 6   churn 6 peers per step: each departure is replaced by a
//	                join into a slot vacated in an earlier step
//
// Service mode (crash-safe checkpoint/restore, internal/snap format):
//
//	-checkpoint DIR  save a checkpoint into DIR's dual slots after each
//	                -every steps (and on graceful shutdown); SIGKILL at
//	                any instruction leaves at least one valid slot
//	-every N        checkpoint cadence in steps (default 1)
//	-restore DIR    resume from the newest valid checkpoint in DIR; the
//	                run configuration is adopted from the checkpoint and
//	                conflicting explicit flags are rejected. Checkpoints
//	                keep landing in DIR unless -checkpoint overrides it.
//	-replay-to N    with -restore: run until step N (replaces -steps)
//	-pace D         sleep D between steps (kill-recover harness knob)
//
// SIGINT/SIGTERM shut down gracefully: final checkpoint, sinks flushed.
// Any sink write failure (-metrics, -trace, -flight dumps, -checkpoint)
// exits nonzero and removes the partial output file.
package main

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"ace"
	"ace/internal/fault"
	"ace/internal/gnutella"
	"ace/internal/metrics"
	"ace/internal/obs"
	"ace/internal/obs/tracer"
	"ace/internal/overlay"
	"ace/internal/sim"
	"ace/internal/snap"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole program behind flag parsing, returning the exit
// code instead of calling os.Exit so the kill-recover harness can
// drive reference runs in-process.
func run(args []string) int {
	fs := flag.NewFlagSet("acesim", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "deterministic seed")
	phys := fs.Int("phys", 2000, "physical topology size")
	peers := fs.Int("peers", 500, "overlay population")
	c := fs.Int("c", 8, "average overlay degree")
	depth := fs.Int("h", 1, "closure depth")
	steps := fs.Int("steps", 12, "ACE rounds")
	queries := fs.Int("queries", 50, "queries sampled per step")
	policyName := fs.String("policy", "random", "random | naive | closest")
	shards := fs.Int("shards", 0, "sharded round engine: shard count (0 serial, -1 GOMAXPROCS)")
	verbose := fs.Bool("v", false, "print per-round phase timings and query means")
	metricsPath := fs.String("metrics", "", "write per-round/per-query JSONL records to this file")
	debugAddr := fs.String("debug", "", "serve pprof and the obs registry on this address (e.g. :6060)")
	tracePath := fs.String("trace", "", "record a causal trace to this file as Chrome trace-event JSON")
	flightPrefix := fs.String("flight", "", "flight recorder only: auto-dump <prefix>-round<N>-<trigger>.json on anomalies")
	traceAnalyze := fs.String("trace-analyze", "", "analyze a recorded trace file and print the critical-path report, then exit")
	faultsPath := fs.String("faults", "", "load a fault plan (JSON) and inject it into the run")
	faultOnset := fs.Int("faultonset", 0, "attach the fault plan at this step instead of from the start (a mid-run fault spike exercises the flight recorder)")
	loss := fs.Float64("loss", 0, "shorthand fault plan: message loss = probe timeout = connect failure rate")
	crash := fs.Float64("crash", 0, "fraction of churned-out peers that crash instead of leaving [0,1]")
	churnPeers := fs.Int("churnpeers", 0, "churn this many peers (leave/crash + rejoin) before each step")
	checkpointDir := fs.String("checkpoint", "", "checkpoint directory (dual-slot, crash-safe)")
	every := fs.Int("every", 1, "checkpoint after every N steps")
	restoreDir := fs.String("restore", "", "resume from the newest valid checkpoint in this directory")
	replayTo := fs.Int("replay-to", 0, "with -restore: run until this step (replaces -steps)")
	pace := fs.Duration("pace", 0, "sleep this long between steps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *traceAnalyze != "" {
		f, err := os.Open(*traceAnalyze)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acesim:", err)
			return 1
		}
		capture, err := tracer.ReadChrome(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "acesim:", err)
			return 1
		}
		if err := tracer.WriteReport(os.Stdout, capture, 5); err != nil {
			fmt.Fprintln(os.Stderr, "acesim:", err)
			return 1
		}
		return 0
	}
	if *every < 1 {
		fmt.Fprintln(os.Stderr, "acesim: -every must be at least 1")
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"steps", *steps}, {"queries", *queries}, {"churnpeers", *churnPeers}, {"replay-to", *replayTo}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "acesim: -%s must not be negative\n", f.name)
			return 2
		}
	}
	if *replayTo != 0 && *restoreDir == "" {
		fmt.Fprintln(os.Stderr, "acesim: -replay-to requires -restore")
		return 2
	}
	policy, ok := parsePolicy(*policyName)
	if !ok {
		fmt.Fprintf(os.Stderr, "acesim: unknown policy %q\n", *policyName)
		return 2
	}

	// Service mode: load the checkpoint first — on restore its Meta IS
	// the run configuration, and explicitly-set flags that contradict it
	// are rejected rather than silently forking the trajectory.
	var resumed *snap.Snapshot
	if *restoreDir != "" {
		store, err := snap.OpenStore(*restoreDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acesim:", err)
			return 1
		}
		s, warnings, err := store.Load()
		for _, w := range warnings {
			fmt.Fprintln(os.Stderr, "acesim: restore:", w)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "acesim:", err)
			return 1
		}
		resumed = s
		m := s.Meta
		for _, conflict := range []struct {
			flag string
			bad  bool
		}{
			{"seed", *seed != m.Seed},
			{"phys", int64(*phys) != m.PhysicalNodes},
			{"peers", int64(*peers) != m.Peers},
			{"c", int64(*c) != m.AvgDegree},
			{"h", int64(*depth) != m.Depth},
			{"shards", int64(*shards) != m.Shards},
			{"queries", int64(*queries) != m.Queries},
			{"churnpeers", int64(*churnPeers) != m.ChurnPeers},
			{"faultonset", int64(*faultOnset) != m.FaultOnset},
			{"policy", policy != ace.Policy(m.Policy)},
			{"faults", true},
			{"loss", true},
			{"crash", true},
		} {
			if explicit[conflict.flag] && conflict.bad {
				fmt.Fprintf(os.Stderr, "acesim: -%s conflicts with the checkpointed run configuration\n", conflict.flag)
				return 2
			}
		}
		*seed, *phys, *peers = m.Seed, int(m.PhysicalNodes), int(m.Peers)
		*c, *depth, *shards = int(m.AvgDegree), int(m.Depth), int(m.Shards)
		*queries, *churnPeers = int(m.Queries), int(m.ChurnPeers)
		*faultOnset = int(m.FaultOnset)
		policy = ace.Policy(m.Policy)
		if *checkpointDir == "" {
			*checkpointDir = *restoreDir
		}
	}
	startStep := 0
	if resumed != nil {
		startStep = int(resumed.Meta.Step)
	}
	total := *steps
	if *replayTo > 0 {
		total = *replayTo
	} else if resumed != nil && !explicit["steps"] {
		total = startStep + *steps
	}
	if resumed != nil && total <= startStep {
		fmt.Fprintf(os.Stderr, "acesim: nothing to replay (checkpoint at step %d, target %d)\n", startStep, total)
		return 2
	}

	// Causal tracing: -trace records the full run into DefaultCapacity
	// rings and dumps at exit; -flight alone runs the cheap always-on
	// rings whose window only hits disk when an anomaly trigger fires.
	tracing := *tracePath != "" || *flightPrefix != ""
	var flight *tracer.FlightRecorder
	traceID := ""
	if tracing {
		ringCap := tracer.DefaultCapacity
		if *tracePath == "" {
			ringCap = tracer.FlightCapacity
		}
		tracer.Enable(ringCap)
		traceID = tracer.FormatRunID(tracer.Default().RunID())
		prefix := *flightPrefix
		if prefix == "" {
			prefix = *tracePath + ".flight"
		}
		// The flag value may carry a directory (-flight /tmp/run1/fl);
		// the recorder joins Dir and Prefix itself.
		dir, base := filepath.Split(prefix)
		if dir == "" {
			dir = "."
		}
		flight = tracer.NewFlightRecorder(tracer.Default(), tracer.FlightConfig{Dir: dir, Prefix: base})
	}

	// Assemble the fault plan: the checkpoint's plan on restore, else an
	// explicit -faults file, else the -loss shorthand; -crash rides
	// along in either case so plan files can carry the full scenario.
	var plan fault.Plan
	switch {
	case resumed != nil:
		plan = resumed.Meta.Plan
	case *faultsPath != "":
		p, err := fault.LoadPlan(*faultsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acesim:", err)
			return 1
		}
		plan = p
	case *loss > 0:
		plan = fault.Plan{LossRate: *loss, ProbeTimeoutRate: *loss, ConnectFailRate: *loss}
	}
	if resumed == nil {
		if plan.Seed == 0 {
			plan.Seed = *seed
		}
		if *crash != 0 && plan.CrashFraction == 0 {
			plan.CrashFraction = *crash
		}
	}
	crashFrac := plan.CrashFraction
	if crashFrac < 0 || crashFrac > 1 {
		fmt.Fprintln(os.Stderr, "acesim: -crash outside [0,1]")
		return 2
	}

	var stream *obs.Stream
	var metricsFile *os.File
	if *metricsPath != "" {
		f, err := os.Create(*metricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acesim:", err)
			return 1
		}
		defer f.Close()
		metricsFile = f
		stream = obs.NewStream(f)
		// The JSONL stream should surface the gated ace.* counters
		// (including the fault reactions) in its final snapshot.
		obs.Enable()
	}
	// failSink reports a sink write failure: the partial output is
	// removed so no consumer mistakes a torn file for a complete run.
	failSink := func(what, path string, err error) int {
		fmt.Fprintf(os.Stderr, "acesim: %s: %v\n", what, err)
		if path != "" {
			os.Remove(path)
		}
		return 1
	}
	if *debugAddr != "" {
		// The live endpoint is only useful with the registry recording.
		obs.Enable()
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/obs", obs.Handler(obs.Default()))
		mux.Handle("/debug/trace", tracer.Handler(tracer.Default()))
		go func() {
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "acesim: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "acesim: debug endpoint on %s (/debug/pprof/, /debug/obs, /debug/trace)\n", *debugAddr)
	}

	if *verbose {
		// -v closes with phase-latency quantiles, which need the span
		// histograms recording from the first round.
		obs.Enable()
	}

	// Build fresh or restore: either way sys, the injector, the RNG
	// streams, and the blind baseline end up in the same state an
	// uninterrupted run would hold at startStep.
	var (
		sys            *ace.System
		inj            *fault.Injector
		faultsAttached bool
		faultBase      fault.Stats
		err            error
	)
	churnRNG := sim.NewRNG(*seed).Derive("acesim-churn")
	rng := sim.NewRNG(*seed).Derive("acesim-queries")
	if resumed != nil {
		sys, inj, err = ace.RestoreSystem(resumed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acesim:", err)
			return 1
		}
		faultsAttached = resumed.Meta.FaultAttached
		faultBase = resumed.Meta.FaultBase
		for _, s := range []struct {
			name string
			rng  *sim.RNG
		}{{"acesim-churn", churnRNG}, {"acesim-queries", rng}} {
			pos, ok := resumed.Pos(s.name)
			if !ok {
				fmt.Fprintf(os.Stderr, "acesim: checkpoint lacks the %q rng stream\n", s.name)
				return 1
			}
			if err := s.rng.SkipTo(pos); err != nil {
				fmt.Fprintln(os.Stderr, "acesim:", err)
				return 1
			}
		}
		fmt.Fprintf(os.Stderr, "acesim: resumed at step %d, replaying to %d\n", startStep, total)
	} else {
		sys, err = ace.NewSystem(
			ace.WithSeed(*seed),
			ace.WithSize(*phys, *peers),
			ace.WithAvgDegree(*c),
			ace.WithDepth(*depth),
			ace.WithPolicy(policy),
			ace.WithShards(*shards),
		)
		if err != nil {
			fmt.Fprintln(os.Stderr, "acesim:", err)
			return 1
		}
		if plan.Active() {
			if inj, err = fault.NewInjector(plan); err != nil {
				fmt.Fprintln(os.Stderr, "acesim:", err)
				return 1
			}
			if *faultOnset <= 1 {
				sys.Network().SetFaults(inj)
				faultsAttached = true
			}
		}
	}

	var store *snap.Store
	if *checkpointDir != "" {
		if store, err = snap.OpenStore(*checkpointDir); err != nil {
			fmt.Fprintln(os.Stderr, "acesim:", err)
			return 1
		}
	}
	// saveCheckpoint captures the full engine state after step k. The
	// engine sits at a rebuild boundary here (Optimize ends every burst
	// with a RebuildTrees), which is the state RestoreState can rebuild
	// bit-identically. baseline is captured by reference: it is filled in
	// below, before the first step can run.
	var baseline snap.Baseline
	saveCheckpoint := func(k int) error {
		return store.Save(&snap.Snapshot{
			Meta: snap.Meta{
				Step: int64(k), Seed: *seed,
				PhysicalNodes: int64(*phys), Peers: int64(*peers), AvgDegree: int64(*c),
				Depth: int64(*depth), Shards: int64(*shards), Policy: int64(policy),
				Queries: int64(*queries), ChurnPeers: int64(*churnPeers),
				Plan: plan, FaultOnset: int64(*faultOnset), FaultAttached: faultsAttached,
				FaultBase: addStats(faultBase, inj.Stats()),
				Baseline:  baseline,
			},
			Net: sys.Network().SnapshotState(),
			Opt: sys.Optimizer().SnapshotState(),
			RNGs: []snap.RNGPos{
				{Name: "system", Pos: sys.RNG().Pos()},
				{Name: "acesim-churn", Pos: churnRNG.Pos()},
				{Name: "acesim-queries", Pos: rng.Pos()},
			},
		})
	}

	// churnStep removes n random live peers — each crashing with the
	// plan's crash fraction, leaving gracefully otherwise — and rejoins a
	// random slot per departure from those that were vacant before the
	// step. Rejoining a slot emptied in the same step would purge its
	// crash debris (revive) before any round could see it. Every slot
	// starts live, so the first step only departs; the population then
	// holds steady, n below the initial one.
	churnStep := func(n int) (left, crashed int) {
		net := sys.Network()
		var vacant []overlay.PeerID
		for p := 0; p < net.N(); p++ {
			if !net.Alive(overlay.PeerID(p)) {
				vacant = append(vacant, overlay.PeerID(p))
			}
		}
		for i := 0; i < n && net.NumAlive() > 2; i++ {
			alive := net.AlivePeers()
			p := alive[churnRNG.Intn(len(alive))]
			if crashFrac > 0 && churnRNG.Float64() < crashFrac {
				net.Crash(p)
				crashed++
			} else {
				net.Leave(p)
			}
			left++
		}
		for i := 0; i < left && len(vacant) > 0; i++ {
			j := churnRNG.Intn(len(vacant))
			net.Join(churnRNG, vacant[j], *c)
			vacant = slices.Delete(vacant, j, j+1)
		}
		return left, crashed
	}

	// sample floods the step's queries and returns their means. The
	// response mean is NaN, printed as n/a, when no query was answered:
	// the mean of no response times is not a perfect response.
	sample := func(blind bool, label string, round int) (traffic, response, scope, success float64) {
		net := sys.Network()
		alive := net.AlivePeers()
		var t, r, s metrics.Agg
		answered := 0
		for i := 0; i < *queries; i++ {
			src := alive[rng.Intn(len(alive))]
			responders := map[overlay.PeerID]bool{alive[rng.Intn(len(alive))]: true}
			var q ace.QueryResult
			if blind {
				q = sys.QueryBlind(src, 0, responders)
			} else {
				q = sys.Query(src, 0, responders)
			}
			t.Add(q.TrafficCost)
			r.Add(q.FirstResponse)
			s.Add(float64(q.Scope))
			if !math.IsInf(q.FirstResponse, 1) {
				answered++
			}
			if stream != nil {
				stream.EmitQuery(gnutella.NewQueryRecord(label, round, i, src, q))
			}
		}
		response = r.Mean()
		if answered == 0 {
			response = math.NaN()
		}
		success = -1 // the flight recorder skips rounds that sampled nothing
		if *queries > 0 {
			success = float64(answered) / float64(*queries)
		}
		return t.Mean(), response, s.Mean(), success
	}

	// The blind baseline is sampled once at step 0 and checkpointed;
	// resampling it on restore would re-draw from the query stream and
	// fork every later measurement.
	var bt, br, bs float64
	if resumed != nil {
		bl := resumed.Meta.Baseline
		bt, br, bs = bl.Traffic, bl.Response, bl.Scope
	} else {
		bt, br, bs, _ = sample(true, "blind", 0)
	}
	baseline = snap.Baseline{Traffic: bt, Response: br, Scope: bs}

	// SIGINT/SIGTERM break the step loop; the shutdown path below still
	// writes the final checkpoint and flushes every sink.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	fmt.Printf("blind flooding baseline: traffic %.0f  response %s  scope %.1f\n", bt, orNA("%.1f ms", br), bs)
	fmt.Printf("%4s  %10s  %8s  %8s  %7s  %6s  %s\n", "step", "traffic", "Δtraffic", "response", "Δresp", "scope", "degree")
	lastSaved := -1
	lastStep := startStep
	interrupted := false
	for k := startStep + 1; k <= total && !interrupted; k++ {
		select {
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "acesim: %v: shutting down gracefully\n", sig)
			interrupted = true
			continue
		default:
		}
		if inj != nil && !faultsAttached && *faultOnset > 1 && k == *faultOnset {
			sys.Network().SetFaults(inj)
			faultsAttached = true
			fmt.Fprintf(os.Stderr, "acesim: fault plan attached at step %d\n", k)
		}
		if *churnPeers > 0 {
			left, crashed := churnStep(*churnPeers)
			if *verbose {
				fmt.Printf("      churn: %d departures (%d crashes)\n", left, crashed)
			}
		}
		rep := sys.Optimize(1)
		t, r, s, succ := sample(false, fmt.Sprintf("step%d", k), k)
		lastStep = k
		if flight != nil {
			if path, trigger, fired := flight.Note(tracer.RoundStats{
				Round:           tracer.Default().RoundSeq(),
				WallNanos:       rep.RebuildNanos + rep.Phase3Nanos + rep.RepairNanos,
				SuccessRate:     succ,
				RepairFallbacks: rep.RepairFallbacks,
				ProbeTimeouts:   rep.ProbeTimeouts,
			}); fired {
				fmt.Fprintf(os.Stderr, "acesim: flight recorder dumped %s (trigger: %s)\n", path, trigger)
			}
			if err := flight.Err(); err != nil {
				return failSink("flight recorder", "", err)
			}
		}
		fmt.Printf("%4d  %10.0f  %7.1f%%  %8s  %7s  %6.1f  %.2f   (repl %d, tentative %d, repairs %d)\n",
			k, t, 100*metrics.Reduction(bt, t), orNA("%.1f", r), orNA("%.1f%%", 100*metrics.Reduction(br, r)), s,
			sys.Network().AverageDegree(), rep.Replacements, rep.KeptNew, rep.Repairs)
		if *verbose {
			fmt.Printf("      round %d: rebuild %.2fms  phase3 %.2fms  repair %.2fms  probes %d  exchange %.0f\n",
				k, float64(rep.RebuildNanos)/1e6, float64(rep.Phase3Nanos)/1e6,
				float64(rep.RepairNanos)/1e6, rep.Probes, rep.ExchangeCost)
			if rep.RepairHits > 0 || rep.RepairFallbacks > 0 {
				fmt.Printf("      mst-repair: hits %d  fallbacks %d  attach %d  swap %d\n",
					rep.RepairHits, rep.RepairFallbacks, rep.AttachOps, rep.SwapOps)
			}
			if rep.Shards > 0 {
				fmt.Printf("      shards %d: merge %.2fms (sort %.2fms)  imbalance build %.1f%% propose %.1f%%\n",
					rep.Shards, float64(rep.MergeNanos)/1e6, float64(rep.MergeSortNanos)/1e6,
					100*rep.ShardImbalance, 100*rep.ProposeImbalance)
			}
			if inj != nil || rep.PurgedEdges > 0 {
				fmt.Printf("      faults: retries %d  timeouts %d  stale %d/%d  blacklist %d  dial-fail %d  purged %d\n",
					rep.ProbeRetries, rep.ProbeTimeouts, rep.StaleMarked, rep.StaleExpired,
					rep.BlacklistHits, rep.FailedConnects, rep.PurgedEdges)
			}
		}
		if stream != nil {
			line := roundLine{
				Round: k, StepReport: rep,
				AvgDegree:    sys.Network().AverageDegree(),
				QueryTraffic: t, QueryResponse: r, QueryScope: s,
				TraceID: traceID, TraceSeq: tracer.Default().RoundSeq(),
			}
			if math.IsNaN(r) {
				line.QueryResponse = 0 // no query answered; JSON cannot carry NaN
			}
			stream.EmitRound(line)
			if err := stream.Err(); err != nil {
				metricsFile.Close()
				return failSink("metrics stream", *metricsPath, err)
			}
		}
		if store != nil && k%*every == 0 {
			sn := saveCheckpoint(k)
			if sn != nil {
				return failSink("checkpoint", "", sn)
			}
			lastSaved = k
		}
		if *pace > 0 {
			time.Sleep(*pace)
		}
	}
	// Final checkpoint: on graceful shutdown, and whenever the cadence
	// left the last completed step unsaved.
	if store != nil && lastStep > startStep && lastSaved != lastStep {
		if err := saveCheckpoint(lastStep); err != nil {
			return failSink("checkpoint", "", err)
		}
	}

	fmt.Printf("total optimization overhead: %.0f (traffic-cost units)\n", sys.Optimizer().TotalOverhead())
	if *verbose && obs.Enabled() {
		for _, s := range obs.Default().Snapshot() {
			if s.Kind != "span" || s.Count == 0 || !strings.HasPrefix(s.Name, "ace.core.round.") {
				continue
			}
			fmt.Printf("phase %-24s p50 %8.2fms  p95 %8.2fms  p99 %8.2fms  (n=%d)\n",
				strings.TrimPrefix(s.Name, "ace.core.round."),
				s.Quantile(0.50)/1e6, s.Quantile(0.95)/1e6, s.Quantile(0.99)/1e6, s.Count)
		}
	}
	if inj != nil {
		st := addStats(faultBase, inj.Stats())
		fmt.Printf("injected faults: %d messages lost, %d probe timeouts, %d connect failures\n",
			st.MessagesLost, st.ProbeTimeouts, st.ConnectFailures)
	}
	if stream != nil {
		if obs.Enabled() {
			stream.EmitSnapshot(obs.Default().Snapshot())
		}
		if err := stream.Err(); err != nil {
			metricsFile.Close()
			return failSink("metrics stream", *metricsPath, err)
		}
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath); err != nil {
			return failSink("trace", *tracePath, err)
		}
		fmt.Fprintf(os.Stderr, "acesim: trace written to %s (run %s)\n", *tracePath, traceID)
	}
	return 0
}

// addStats sums a checkpointed fault-count base with the live
// injector's own counts: the cumulative totals across restarts.
func addStats(base, cur fault.Stats) fault.Stats {
	return fault.Stats{
		MessagesLost:    base.MessagesLost + cur.MessagesLost,
		ProbeTimeouts:   base.ProbeTimeouts + cur.ProbeTimeouts,
		ConnectFailures: base.ConnectFailures + cur.ConnectFailures,
	}
}

// parsePolicy resolves a -policy name through Policy.String.
func parsePolicy(name string) (ace.Policy, bool) {
	for _, p := range []ace.Policy{ace.PolicyRandom, ace.PolicyNaive, ace.PolicyClosest} {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// roundLine is one -metrics round record: the round's StepReport, whose
// field tags name its keys, flattened beside what acesim measured after
// the round. Query means are 0, and omitted, when no query was sampled;
// the response mean is also when none was answered.
type roundLine struct {
	Round int `json:"round"`
	ace.StepReport
	AvgDegree     float64 `json:"avg_degree,omitempty"`
	QueryTraffic  float64 `json:"query_traffic,omitempty"`
	QueryResponse float64 `json:"query_response_ms,omitempty"`
	QueryScope    float64 `json:"query_scope,omitempty"`

	// Trace linkage, set when a causal-trace capture runs alongside the
	// metrics stream: TraceID is the capture's run id (tracer.FormatRunID)
	// and TraceSeq the tracer's round sequence for this round, so a round
	// line joins exactly one round window of the trace file.
	TraceID  string `json:"trace_id,omitempty"`
	TraceSeq int32  `json:"trace_seq,omitempty"`
}

// orNA formats v, or returns n/a for a NaN response mean.
func orNA(format string, v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}

// writeTrace dumps the whole recorded trace as Chrome trace-event JSON
// (Perfetto-loadable).
func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tracer.WriteChrome(f, tracer.Default().Capture())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
