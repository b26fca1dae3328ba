package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"ace"
	"ace/internal/experiments"
	"ace/internal/fault"
	"ace/internal/overlay"
	"ace/internal/sim"
	"ace/internal/snap"
	"ace/internal/topology"
)

// workload is one acesim-shaped run: a deployment, a churn and fault
// mix, and the queries and checkpoint each step performs.
type workload struct {
	name string

	phys, peers int // peers counts slots, live at first
	vacant      int // slots emptied during set-up, before the first exchange
	degree      int // average overlay degree (acesim -c)
	depth       int // closure depth h
	shards      int // 0 serial engine, -1 one shard per GOMAXPROCS

	churn     int     // departures per step, each followed by a rejoin
	crash     float64 // share of departures that crash
	faultRate float64 // message loss = probe timeout = connect failure rate

	aceQueries   int // ACE floods per step
	blindQueries int // blind floods per step, reusing the first ACE queries' inputs
	responders   int // responders per query

	// steps is the fixed count of measured steps every run makes; the
	// simulated metrics and the digest cover exactly these. A run keeps
	// stepping past them only while its --seconds budget lasts, and those
	// extra steps add timing samples alone.
	steps     int
	warmup    int // steps run inside set-up, before measurement
	setups    int // set-up repetitions; setup_s is their median
	treeCheck int // peers whose multicast trees are checked per step
}

// lossFree reports whether floods can lose messages or meet crashed
// peers; the exact blind-flood checks hold only when they cannot.
func (w workload) lossFree() bool { return w.faultRate == 0 && w.crash == 0 }

// plan is the workload's fault plan, empty when it has no faults.
func (w workload) plan(seed int64) fault.Plan {
	if w.lossFree() {
		return fault.Plan{}
	}
	return fault.Plan{
		Seed:     seed,
		LossRate: w.faultRate, ProbeTimeoutRate: w.faultRate, ConnectFailRate: w.faultRate,
		CrashFraction: w.crash,
	}
}

// deploySeed seeds every workload's deployment: ace.NewSystem's physical
// topology, peer attachments, initial overlay and the optimizer's own
// random stream. The deployment stays the same for every --seed, so the
// spread between runs measures the host and the seeded draws (churn,
// floods, responders, fault decisions), not the spread between random
// topologies, which is several times wider.
const deploySeed = 2004

// workloads are the benchmark's runs; README.md gives the reason for
// each. churn sets up once per run: its set-up takes ~20 s, nearly all
// of it the 10k distance-vector fills, and repeating it would more than
// double the run. faults keeps 100 of its 1100 slots vacant: as in
// acesim, a step rejoins as many random dead slots as it emptied, and
// with no vacant slots those are exactly the step's departures, so every
// crashed peer would rejoin (purging its debris) before any round or
// flood could meet it.
var workloads = []workload{
	{
		name: "churn",
		phys: 10000, peers: 10000, degree: 8, depth: 1, shards: 0,
		churn:      20,
		aceQueries: 1, blindQueries: 1, responders: 4,
		steps: 40, warmup: 2, setups: 1, treeCheck: 16,
	},
	{
		name: "query",
		phys: 4000, peers: 4000, degree: 8, depth: 1, shards: 0,
		churn:      2,
		aceQueries: 6, blindQueries: 2, responders: 4,
		steps: 40, warmup: 2, setups: 3, treeCheck: 16,
	},
	{
		name: "faults",
		phys: 2000, peers: 1100, vacant: 100, degree: 8, depth: 2, shards: -1,
		churn: 10, crash: 0.25, faultRate: 0.05,
		aceQueries: 4, blindQueries: 2, responders: 4,
		steps: 40, warmup: 2, setups: 3, treeCheck: 8,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// query is one flood's inputs: a live source and its responders.
type query struct {
	src        overlay.PeerID
	responders []overlay.PeerID
	set        map[overlay.PeerID]bool
}

// floods holds one step's flood inputs and results until the step's
// checks and accounting have read them; the blind floods reuse the
// inputs of the first ACE floods.
type floods struct {
	queries    []query
	ace, blind []ace.QueryResult
}

// stepRecord holds what one measured step cost on the host and what it
// did in the simulation. Times are ns.
type stepRecord struct {
	step                    int
	wall                    int64 // the whole step span
	churn, round, exchange  int64 // round = churn + Round + RebuildTrees
	roundCall               int64 // Round alone
	capture, save           int64
	ace, blind              []int64
	rep                     ace.StepReport
	overhead                float64 // TotalOverhead delta
	journal, delayCalls     uint64
	rebuilt, fullRebuilds   int
	aceSends, aceDuplicates int
	blindSends              int
	lost, deadLetters       int
	snapBytes               int

	// Traced runs only.
	alloc        uint64
	gcs          uint32
	encode, scan int64
}

// sim accumulates the simulated quantities over the fixed measured
// steps; they depend on the seed alone.
type simTotals struct {
	aceTraffic, aceResponse, aceScope float64
	aceQueries, answered              int
	blindTraffic                      float64
	blindQueries                      int
	overhead                          float64
	rounds                            int
}

// bench is one run of one workload.
type bench struct {
	w    workload
	seed int64
	r    *recorder
	c    checker
	dir  string // checkpoint store directory, removed at the end

	sys                          *ace.System
	inj                          *fault.Injector
	churnRNG, queryRNG, checkRNG *sim.RNG
	store                        *snap.Store
	lastSnap                     *snap.Snapshot // saved by the latest step
	step                         int            // global step counter, warm-up included

	alive []overlay.PeerID
	dead  []overlay.PeerID

	setupNS, fillNS       []int64
	vectors               int
	topologyNS, overlayNS int64 // traced replicas of NewSystem's generators

	records []stepRecord
	sums    simTotals
	digest  hash.Hash
	ops     int // steps, queries and checkpoints attempted
	opFails int // of which returned an error
}

func newBench(w workload, seed int64, traced bool, dir string) *bench {
	return &bench{w: w, seed: seed, r: newRecorder(traced), dir: dir, digest: sha256.New()}
}

// setup builds the deployment from scratch: NewSystem (physical
// topology and overlay), the oracle's distance-vector fills for every
// peer slot, the first full exchange, and the warm-up steps. rep numbers
// the repetition; its spans carry step −rep.
func (b *bench) setup(rep int) error {
	w := b.w
	// Drop the previous repetition's deployment first, so every
	// repetition starts from the same heap.
	b.sys, b.inj, b.store = nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.RemoveAll(b.dir); err != nil {
		return fmt.Errorf("clear checkpoint directory: %w", err)
	}

	stepID := int32(-rep)
	start := b.r.now()
	root := b.r.open("setup", -1, stepID, start)
	var err error
	b.r.timed("ace.NewSystem", root, stepID, func() {
		b.sys, err = ace.NewSystem(
			ace.WithSeed(deploySeed),
			ace.WithSize(w.phys, w.peers),
			ace.WithAvgDegree(w.degree),
			ace.WithDepth(w.depth),
			ace.WithShards(w.shards),
		)
	})
	if err != nil {
		return fmt.Errorf("new system: %w", err)
	}
	if plan := w.plan(b.seed); plan.Active() {
		if b.inj, err = fault.NewInjector(plan); err != nil {
			return fmt.Errorf("fault plan: %w", err)
		}
		b.sys.Network().SetFaults(b.inj)
	}
	net := b.sys.Network()
	vacate := sim.NewRNG(deploySeed).Derive("acebench-vacant")
	for range w.vacant {
		b.alive = net.AlivePeersAppend(b.alive[:0])
		net.Leave(b.alive[vacate.Intn(len(b.alive))])
	}
	sources := make([]int, net.N())
	for p := range sources {
		sources[p] = net.Attachment(overlay.PeerID(p))
	}
	oracle := net.Oracle()
	fill := b.r.timed("physical.fill", root, stepID, func() { oracle.Warm(sources, 0) })
	b.vectors = oracle.CacheSize()
	b.r.timed("core.exchange", root, stepID, func() { b.sys.Optimizer().RebuildTrees() })
	if b.store, err = snap.OpenStore(b.dir); err != nil {
		return err
	}
	rng := sim.NewRNG(b.seed)
	b.churnRNG = rng.Derive("acebench-churn")
	b.queryRNG = rng.Derive("acebench-queries")
	b.checkRNG = rng.Derive("acebench-checks")
	b.step = 0

	// Warm-up steps run exactly like measured ones, unrecorded.
	wid := b.r.open("warmup", root, stepID, b.r.now())
	on := b.r.on
	b.r.on = false
	for range w.warmup {
		b.runStep()
	}
	b.r.on = on
	end := b.r.now()
	b.r.close(wid, end)
	b.r.close(root, end)

	b.setupNS = append(b.setupNS, end-start)
	b.fillNS = append(b.fillNS, fill)
	return nil
}

// replicaGenerators times, in traced runs, the two generators NewSystem
// calls, repeated with NewSystem's own seed streams: BA topology
// generation and the small-world overlay. NewSystem's span cannot be
// split from outside, so these replicas give its layer figures.
func (b *bench) replicaGenerators() error {
	w := b.w
	root := b.r.open("replica", -1, 0, b.r.now())
	defer func() { b.r.close(root, b.r.now()) }()
	rng := sim.NewRNG(deploySeed)
	var err error
	b.topologyNS = b.r.timed("topology.generate", root, 0, func() {
		_, err = topology.GenerateBA(rng.Derive("phys"), topology.DefaultBASpec(w.phys))
	})
	if err != nil {
		return fmt.Errorf("replica topology: %w", err)
	}
	attach, err := overlay.RandomAttachments(rng.Derive("attach"), w.phys, w.peers)
	if err != nil {
		return fmt.Errorf("replica attachments: %w", err)
	}
	net, err := overlay.NewNetwork(b.sys.Network().Oracle(), attach)
	if err != nil {
		return fmt.Errorf("replica network: %w", err)
	}
	b.overlayNS = b.r.timed("overlay.generate", root, 0, func() {
		err = overlay.GenerateSmallWorld(rng.Derive("overlay"), net, w.degree, experiments.TriadProb)
	})
	if err != nil {
		return fmt.Errorf("replica overlay: %w", err)
	}
	return nil
}

// churn mirrors acesim's churn step: each departure is a random live
// peer that crashes with the workload's crash share and leaves
// gracefully otherwise; each departure is followed by a Join of a
// random dead slot. Only the overlay calls are timed.
func (b *bench) churn(stepID int32) int64 {
	net := b.sys.Network()
	var spent int64
	left := 0
	for i := 0; i < b.w.churn && net.NumAlive() > 2; i++ {
		b.alive = net.AlivePeersAppend(b.alive[:0])
		p := b.alive[b.churnRNG.Intn(len(b.alive))]
		if b.w.crash > 0 && b.churnRNG.Float64() < b.w.crash {
			spent += b.r.timed("overlay.crash", stepID, int32(b.step), func() { net.Crash(p) })
		} else {
			spent += b.r.timed("overlay.leave", stepID, int32(b.step), func() { net.Leave(p) })
		}
		left++
	}
	for range left {
		b.dead = b.dead[:0]
		for p := range overlay.PeerID(net.N()) {
			if !net.Alive(p) {
				b.dead = append(b.dead, p)
			}
		}
		if len(b.dead) == 0 {
			break
		}
		p := b.dead[b.churnRNG.Intn(len(b.dead))]
		spent += b.r.timed("overlay.join", stepID, int32(b.step), func() { net.Join(b.churnRNG, p, b.w.degree) })
	}
	return spent
}

// drawQuery picks a live source and the workload's number of live
// responders from the query stream.
func (b *bench) drawQuery() query {
	q := query{src: b.alive[b.queryRNG.Intn(len(b.alive))], set: map[overlay.PeerID]bool{}}
	for range b.w.responders {
		r := b.alive[b.queryRNG.Intn(len(b.alive))]
		q.responders = append(q.responders, r)
		q.set[r] = true
	}
	return q
}

// runStep runs one acesim step: churn, Round then RebuildTrees (what
// System.Optimize(1) runs), the step's ACE and blind floods, and one
// checkpoint. It returns the step's record and floods; the snapshot it
// saved is left in b.lastSnap. A failed save counts as a failed
// operation, and the checkpoint check that follows fails too.
func (b *bench) runStep() (*stepRecord, *floods) {
	b.step++
	k := int32(b.step)
	net, opt := b.sys.Network(), b.sys.Optimizer()
	oracle := net.Oracle()
	rec := &stepRecord{step: b.step}
	v0, q0, rs0 := net.Version(), oracle.Stats().Queries, opt.RebuildStats()
	overhead0 := opt.TotalOverhead()

	start := b.r.now()
	stepID := b.r.open("step", -1, k, start)

	rec.churn = b.churn(stepID)

	rs := b.r.now()
	rid := b.r.open("core.round", stepID, k, rs)
	rec.rep = opt.Round(b.sys.RNG())
	re := b.r.now()
	b.r.close(rid, re)
	if b.r.on {
		b.phaseSpans(rid, k, rs, re, &rec.rep)
	}
	rec.exchange = b.r.timed("core.exchange", stepID, k, func() { opt.RebuildTrees() })
	rec.roundCall = re - rs
	rec.round = rec.churn + rec.roundCall + rec.exchange
	rec.overhead = opt.TotalOverhead() - overhead0
	rs1 := opt.RebuildStats()
	rec.rebuilt, rec.fullRebuilds = rs1.PeersRebuilt-rs0.PeersRebuilt, rs1.Full-rs0.Full
	b.ops++

	b.alive = net.AlivePeersAppend(b.alive[:0])
	f := &floods{
		queries: make([]query, b.w.aceQueries),
		ace:     make([]ace.QueryResult, b.w.aceQueries),
		blind:   make([]ace.QueryResult, b.w.blindQueries),
	}
	for i := range f.queries {
		f.queries[i] = b.drawQuery()
		q := &f.queries[i]
		d := b.r.timed("gnutella.ace_query", stepID, k, func() { f.ace[i] = b.sys.Query(q.src, 0, q.set) })
		rec.ace = append(rec.ace, d)
		rec.aceSends += f.ace[i].Transmissions
		rec.aceDuplicates += f.ace[i].Duplicates
		rec.lost += f.ace[i].Lost
		rec.deadLetters += f.ace[i].DeadLetters
	}
	for j := range f.blind {
		q := &f.queries[j]
		d := b.r.timed("gnutella.blind_query", stepID, k, func() { f.blind[j] = b.sys.QueryBlind(q.src, 0, q.set) })
		rec.blind = append(rec.blind, d)
		rec.blindSends += f.blind[j].Transmissions
		rec.lost += f.blind[j].Lost
		rec.deadLetters += f.blind[j].DeadLetters
	}
	b.ops += len(f.ace) + len(f.blind)

	var sn snap.Snapshot
	rec.capture = b.r.timed("snap.capture", stepID, k, func() {
		sn.Net = net.SnapshotState()
		sn.Opt = opt.SnapshotState()
	})
	sn.Meta = b.meta()
	sn.RNGs = []snap.RNGPos{
		{Name: "system", Pos: b.sys.RNG().Pos()},
		{Name: "acebench-churn", Pos: b.churnRNG.Pos()},
		{Name: "acebench-queries", Pos: b.queryRNG.Pos()},
	}
	var err error
	rec.save = b.r.timed("snap.save", stepID, k, func() { err = b.store.Save(&sn) })
	b.ops++
	end := b.r.now()
	b.r.close(stepID, end)
	rec.wall = end - start
	rec.journal = net.Version() - v0
	rec.delayCalls = oracle.Stats().Queries - q0
	if err != nil {
		b.opFails++
		b.c.note("step %d: save checkpoint: %v", b.step, err)
	}
	b.lastSnap = &sn
	return rec, f
}

// phaseSpans adds the program's own phase durations from the round's
// StepReport as children of the round span, laid back to back from the
// round's start in the order Round runs them. Their lengths are the
// program's measurements; their positions within the round are
// approximate. The merge runs at the end of Phase 3.
func (b *bench) phaseSpans(round, k int32, start, end int64, rep *ace.StepReport) {
	t := start
	next := func(name string, d int64) int32 {
		a := min(t, end)
		t += d
		return b.r.add(name, round, k, a, min(t, end))
	}
	next("core.rebuild", rep.RebuildNanos)
	p3 := b.r.spans[next("core.phase3", rep.Phase3Nanos)]
	if rep.MergeNanos > 0 {
		b.r.add("core.merge", p3.ID, k, max(p3.End-rep.MergeNanos, p3.Start), p3.End)
	}
	next("core.mindegree", rep.RepairNanos)
}

// meta is the checkpoint's run description, as acesim writes it.
func (b *bench) meta() snap.Meta {
	w := b.w
	return snap.Meta{
		Step: int64(b.step), Seed: deploySeed,
		PhysicalNodes: int64(w.phys), Peers: int64(w.peers), AvgDegree: int64(w.degree),
		Depth: int64(w.depth), Shards: int64(w.shards), Policy: int64(ace.PolicyRandom),
		Queries: int64(w.aceQueries), ChurnPeers: int64(w.churn),
		Plan: w.plan(b.seed), FaultAttached: b.inj != nil, FaultBase: b.inj.Stats(),
	}
}

// checkStep runs the output checks for the step just measured, outside
// its timed region, and returns the step's encoded checkpoint.
func (b *bench) checkStep(rec *stepRecord, f *floods) []byte {
	w, net, k := b.w, b.sys.Network(), rec.step
	root := b.r.open("checks", -1, int32(k), b.r.now())
	defer func() { b.r.close(root, b.r.now()) }()

	checkAdjacency(&b.c, k, net)
	refs := make([]floodRef, len(f.queries))
	for i, q := range f.ace {
		checkConservation(&b.c, k, "ACE", q)
		if w.lossFree() {
			refs[i] = liveComponent(net, f.queries[i].src)
			b.c.expect(q.Scope == len(refs[i].comp), "step %d: ACE scope %d, blind-flood scope (live component) %d",
				k, q.Scope, len(refs[i].comp))
		}
	}
	for j, q := range f.blind {
		checkConservation(&b.c, k, "blind", q)
		if w.lossFree() {
			checkBlind(&b.c, k, net, &refs[j], f.queries[j].src, f.queries[j].responders, q)
		}
	}
	b.alive = net.AlivePeersAppend(b.alive[:0])
	for range w.treeCheck {
		checkTree(&b.c, k, b.sys, b.alive[b.checkRNG.Intn(len(b.alive))])
	}

	var saved []byte
	var err error
	rec.encode = b.r.timed("snap.encode", root, int32(k), func() { saved, err = snap.Encode(b.lastSnap) })
	if err != nil {
		b.c.expect(false, "step %d: encode checkpoint: %v", k, err)
		return nil
	}
	rec.snapBytes = len(saved)
	var loaded *snap.Snapshot
	rec.scan = b.r.timed("snap.scan", root, int32(k), func() { loaded, _, err = b.store.Load() })
	checkCheckpoint(&b.c, k, loaded, err, saved)
	return saved
}

// account folds a fixed measured step into the simulated totals and the
// digest. Engine bookkeeping (phase times, shard layout, repair paths)
// is left out: it varies with GOMAXPROCS, the trajectory does not.
func (b *bench) account(rec *stepRecord, f *floods) {
	s := &b.sums
	for _, q := range f.ace {
		s.aceTraffic += q.TrafficCost
		s.aceScope += float64(q.Scope)
		s.aceQueries++
		if !math.IsInf(q.FirstResponse, 1) {
			s.aceResponse += q.FirstResponse
			s.answered++
		}
	}
	for _, q := range f.blind {
		s.blindTraffic += q.TrafficCost
		s.blindQueries++
	}
	s.overhead += rec.overhead
	s.rounds++

	r := rec.rep
	words := []uint64{
		uint64(rec.step), uint64(r.Probes), uint64(r.Replacements), uint64(r.KeptNew),
		uint64(r.DeferredCuts), uint64(r.Abandoned), uint64(r.Repairs),
		math.Float64bits(r.ProbeTraffic), math.Float64bits(r.ExchangeCost),
		uint64(r.ProbeRetries), uint64(r.ProbeTimeouts), uint64(r.StaleMarked), uint64(r.StaleExpired),
		uint64(r.BlacklistHits), uint64(r.FailedConnects), uint64(r.PurgedEdges),
		math.Float64bits(rec.overhead), rec.journal,
	}
	for _, q := range slices.Concat(f.ace, f.blind) {
		words = append(words, uint64(q.Scope), uint64(q.Transmissions), uint64(q.Duplicates),
			uint64(q.Lost), uint64(q.DeadLetters),
			math.Float64bits(q.TrafficCost), math.Float64bits(q.FirstResponse))
	}
	buf := make([]byte, 8*len(words))
	for i, x := range words {
		binary.LittleEndian.PutUint64(buf[8*i:], x)
	}
	b.digest.Write(buf)
}

// run sets the workload up, measures steps until both the fixed step
// count and the time budget are spent, and checks every step.
func (b *bench) run(budget time.Duration) error {
	defer os.RemoveAll(b.dir)
	for rep := 1; rep <= b.w.setups; rep++ {
		if err := b.setup(rep); err != nil {
			return err
		}
	}
	if b.r.on {
		if err := b.replicaGenerators(); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for n := 0; n < b.w.steps || time.Since(start) < budget; n++ {
		if b.r.on {
			runtime.ReadMemStats(&ms0)
		}
		rec, f := b.runStep()
		if b.r.on {
			runtime.ReadMemStats(&ms1)
			rec.alloc, rec.gcs = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
		}
		saved := b.checkStep(rec, f)
		if n < b.w.steps {
			b.account(rec, f)
		}
		if n == b.w.steps-1 {
			b.digest.Write(saved) // the last fixed step's checkpoint closes the digest
		}
		b.records = append(b.records, *rec)
	}
	if b.w.lossFree() {
		s := b.sums
		at, bt := s.aceTraffic/float64(s.aceQueries), s.blindTraffic/float64(s.blindQueries)
		b.c.expect(at < bt, "mean ACE traffic %.1f not below mean blind traffic %.1f", at, bt)
	}
	return nil
}

// storeDir names the run's checkpoint directory under out.
func storeDir(out, workload string) string {
	return filepath.Join(out, fmt.Sprintf("ckpt-%s-%d", workload, os.Getpid()))
}
