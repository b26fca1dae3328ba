package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
)

// metric is one named figure of a run.
type metric struct {
	name  string
	unit  string
	value float64
	n     int    // samples behind the value (0 when it is not a statistic)
	how   string // how the value is formed from its samples
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func msAll(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = ms(d)
	}
	return out
}

// perStep gathers one value per measured step.
func (b *bench) perStep(f func(r *stepRecord) float64) []float64 {
	out := make([]float64, len(b.records))
	for i := range b.records {
		out[i] = f(&b.records[i])
	}
	return out
}

// samples gathers the per-operation wall times of the measured steps.
func (b *bench) samples() (round, aceQ, blindQ, ckpt []float64) {
	for i := range b.records {
		r := &b.records[i]
		round = append(round, ms(r.round))
		aceQ = append(aceQ, msAll(r.ace)...)
		blindQ = append(blindQ, msAll(r.blind)...)
		ckpt = append(ckpt, ms(r.capture+r.save))
	}
	return
}

// peakRSSMB reads the process's peak resident set (getrusage reports
// ru_maxrss in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// endToEnd returns the ten metrics a user of the simulator sees.
func (b *bench) endToEnd(peakMB float64) []metric {
	round, aceQ, blindQ, ckpt := b.samples()
	setup := make([]float64, len(b.setupNS))
	for i, d := range b.setupNS {
		setup[i] = float64(d) / 1e9
	}
	s := b.sums
	return []metric{
		{"setup_s", "s", median(setup), len(setup), "median over set-ups"},
		{"round_ms", "ms", median(round), len(round), "median over steps"},
		{"query_ms", "ms", median(aceQ), len(aceQ), "median over ACE floods"},
		{"blind_query_ms", "ms", median(blindQ), len(blindQ), "median over blind floods"},
		{"checkpoint_ms", "ms", median(ckpt), len(ckpt), "median over checkpoints"},
		{"peak_rss_mb", "MB", peakMB, 0, "getrusage ru_maxrss"},
		{"ace_traffic", "cost", s.aceTraffic / float64(s.aceQueries), s.aceQueries, "mean over ACE floods"},
		{"ace_response_ms", "sim_ms", s.aceResponse / float64(s.answered), s.answered, "mean over answered ACE floods"},
		{"ace_scope", "peers", s.aceScope / float64(s.aceQueries), s.aceQueries, "mean over ACE floods"},
		{"overhead_per_round", "cost", s.overhead / float64(s.rounds), s.rounds, "mean TotalOverhead delta per step"},
	}
}

// perLayer returns the traced run's layer figures. Times are medians
// over steps (or operations); counts are means per step (or per flood).
func (b *bench) perLayer() []metric {
	med := func(name, unit string, xs []float64) metric { return metric{name, unit, median(xs), len(xs), "median"} }
	avg := func(name, unit string, xs []float64) metric {
		return metric{name, unit, mean(xs), len(xs), "mean per step"}
	}
	nsMS := func(f func(r *stepRecord) int64) []float64 {
		return b.perStep(func(r *stepRecord) float64 { return ms(f(r)) })
	}
	count := func(f func(r *stepRecord) int) []float64 {
		return b.perStep(func(r *stepRecord) float64 { return float64(f(r)) })
	}

	var aceNS, blindNS, aceSends, blindSends, aceDup, nAce, nBlind float64
	for i := range b.records {
		r := &b.records[i]
		for _, d := range r.ace {
			aceNS += float64(d)
		}
		for _, d := range r.blind {
			blindNS += float64(d)
		}
		aceSends += float64(r.aceSends)
		blindSends += float64(r.blindSends)
		aceDup += float64(r.aceDuplicates)
		nAce += float64(len(r.ace))
		nBlind += float64(len(r.blind))
	}
	fillS := make([]float64, len(b.fillNS))
	for i, d := range b.fillNS {
		fillS[i] = float64(d) / 1e9
	}
	physN := float64(b.sys.Network().Oracle().N())

	out := []metric{
		{"topology.generate_s", "s", float64(b.topologyNS) / 1e9, 1, "replica of NewSystem's BA generation"},
		{"physical.fill_s", "s", median(fillS), len(fillS), "median over set-ups"},
		{"physical.vectors", "count", float64(b.vectors), 0, "cached distance vectors"},
		{"physical.cache_mb", "MB", float64(b.vectors) * physN * 4 / (1 << 20), 0, "vectors x nodes x 4 B"},
		avg("physical.delay_calls", "count", b.perStep(func(r *stepRecord) float64 { return float64(r.delayCalls) })),
		{"overlay.generate_s", "s", float64(b.overlayNS) / 1e9, 1, "replica of NewSystem's overlay generation"},
		med("overlay.churn_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.churn })),
		avg("overlay.journal_events", "count", b.perStep(func(r *stepRecord) float64 { return float64(r.journal) })),
		med("core.rebuild_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.rep.RebuildNanos })),
		med("core.exchange_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.exchange })),
		avg("core.states_rebuilt", "count", count(func(r *stepRecord) int { return r.rebuilt })),
		avg("core.full_rebuilds", "count", count(func(r *stepRecord) int { return r.fullRebuilds })),
		avg("core.repair_hits", "count", count(func(r *stepRecord) int { return r.rep.RepairHits })),
		avg("core.repair_fallbacks", "count", count(func(r *stepRecord) int { return r.rep.RepairFallbacks })),
		med("core.phase3_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.rep.Phase3Nanos })),
		med("core.merge_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.rep.MergeNanos })),
		avg("core.merge_segments", "count", count(func(r *stepRecord) int { return r.rep.MergeSegments })),
		avg("core.merge_serial", "count", count(func(r *stepRecord) int { return r.rep.MergeSerialFallbacks })),
		avg("core.shard_imbalance", "ratio", b.perStep(func(r *stepRecord) float64 { return r.rep.ShardImbalance })),
		med("core.mindegree_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.rep.RepairNanos })),
		med("core.round_other_ms", "ms", nsMS(func(r *stepRecord) int64 {
			return r.roundCall - r.rep.RebuildNanos - r.rep.Phase3Nanos - r.rep.RepairNanos
		})),
		avg("core.probes", "count", count(func(r *stepRecord) int { return r.rep.Probes })),
		avg("core.rewires", "count", count(func(r *stepRecord) int { return r.rep.Replacements + r.rep.KeptNew })),
		avg("fault.probe_retries", "count", count(func(r *stepRecord) int { return r.rep.ProbeRetries })),
		avg("fault.probe_timeouts", "count", count(func(r *stepRecord) int { return r.rep.ProbeTimeouts })),
		avg("fault.stale_expired", "count", count(func(r *stepRecord) int { return r.rep.StaleExpired })),
		avg("fault.purged_edges", "count", count(func(r *stepRecord) int { return r.rep.PurgedEdges })),
		avg("fault.failed_connects", "count", count(func(r *stepRecord) int { return r.rep.FailedConnects })),
		avg("fault.messages_lost", "count", count(func(r *stepRecord) int { return r.lost })),
		avg("fault.dead_letters", "count", count(func(r *stepRecord) int { return r.deadLetters })),
		{"gnutella.ace_sends", "count", aceSends / nAce, int(nAce), "mean per ACE flood"},
		{"gnutella.ace_duplicates", "count", aceDup / nAce, int(nAce), "mean per ACE flood"},
		{"gnutella.blind_sends", "count", blindSends / nBlind, int(nBlind), "mean per blind flood"},
		{"gnutella.ace_ns_per_send", "ns", aceNS / aceSends, int(nAce), "host time over sends"},
		{"gnutella.blind_ns_per_send", "ns", blindNS / blindSends, int(nBlind), "host time over sends"},
		med("snap.capture_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.capture })),
		med("snap.save_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.save })),
		avg("snap.bytes", "B", count(func(r *stepRecord) int { return r.snapBytes })),
		med("snap.encode_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.encode })),
		med("snap.scan_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.scan })),
		med("runtime.alloc_mb_per_step", "MB", b.perStep(func(r *stepRecord) float64 { return float64(r.alloc) / (1 << 20) })),
		avg("runtime.gc_cycles", "count", b.perStep(func(r *stepRecord) float64 { return float64(r.gcs) })),
		med("step.wall_ms", "ms", nsMS(func(r *stepRecord) int64 { return r.wall })),
	}
	unattributed := make([]float64, 0, len(b.records))
	for _, m := range b.breakdown() {
		unattributed = append(unattributed, ms(m["step.unattributed"]))
	}
	out = append(out, med("step.unattributed_ms", "ms", unattributed))

	round, aceQ, blindQ, ckpt := b.samples()
	for _, t := range []struct {
		name string
		xs   []float64
	}{{"round_ms", round}, {"query_ms", aceQ}, {"blind_query_ms", blindQ}, {"checkpoint_ms", ckpt}} {
		// Every workload makes at least minTailSamples steps with at
		// least one flood of each kind (TestWorkloadsHaveTails), so a
		// tail always exists.
		if pct, v, ok := tail(t.xs); ok {
			out = append(out, metric{t.name + ".tail", "ms", v, len(t.xs), fmt.Sprintf("p%d of %d samples", pct, len(t.xs))})
		}
	}
	return out
}

// breakdown returns, per measured step, the self time of every layer
// span inside the step plus the step's unattributed residual.
func (b *bench) breakdown() map[int32]map[string]int64 {
	return stepBreakdown(b.r.spans, selfTimes(b.r.spans), "step")
}

// checkBreakdown verifies, per traced step, that the layer self times
// and the residual add up to the step's wall time.
func (b *bench) checkBreakdown() {
	bd := b.breakdown()
	for i := range b.records {
		r := &b.records[i]
		var sum int64
		for _, v := range bd[int32(r.step)] {
			sum += v
		}
		b.c.expect(sum == r.wall, "step %d: layer self times sum to %d ns, step wall %d ns", r.step, sum, r.wall)
	}
}

// printLayerTable prints, per measured step, each layer span's calls,
// total and self time and its share of the step's wall time, then the
// unattributed residual; the checks run outside the steps and are
// listed apart.
func (b *bench) printLayerTable(w io.Writer) {
	spans := b.r.spans
	self := selfTimes(spans)
	rootOf := roots(spans)
	type agg struct {
		calls       int
		total, self int64
	}
	inStep, outside := map[string]*agg{}, map[string]*agg{}
	var wall int64
	steps := 0
	for i, s := range spans {
		root := spans[rootOf[i]]
		if s.Step <= 0 || (root.Name != "step" && root.Name != "checks") {
			continue // set-up and replica spans
		}
		if s.Name == "step" {
			wall += s.End - s.Start
			steps++
			continue
		}
		m := inStep
		if root.Name == "checks" {
			m = outside
		}
		a := m[s.Name]
		if a == nil {
			a = &agg{}
			m[s.Name] = a
		}
		a.calls++
		a.total += s.End - s.Start
		a.self += self[i]
	}
	var unattributed int64
	for _, m := range stepBreakdown(spans, self, "step") {
		unattributed += m["step.unattributed"]
	}
	n := float64(steps)
	row := func(name string, a *agg) {
		fmt.Fprintf(w, "  %-22s %8.1f %10.3f %10.3f %6.1f%%\n", name, float64(a.calls)/n,
			ms(a.total)/n, ms(a.self)/n, 100*float64(a.self)/float64(wall))
	}
	fmt.Fprintf(w, "layer breakdown over %d traced steps (means per step):\n", steps)
	fmt.Fprintf(w, "  %-22s %8s %10s %10s %7s\n", "span", "calls", "total ms", "self ms", "of step")
	for _, name := range slices.Sorted(maps.Keys(inStep)) {
		row(name, inStep[name])
	}
	row("step.unattributed", &agg{calls: steps, total: unattributed, self: unattributed})
	fmt.Fprintf(w, "  %-22s %8s %10.3f\n", "step wall", "", ms(wall)/n)
	fmt.Fprintln(w, "outside the steps (output checks):")
	for _, name := range slices.Sorted(maps.Keys(outside)) {
		row(name, outside[name])
	}
}

// host describes the machine a run measured on.
func host(dir string) []string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return []string{
		"cpu: " + cpu,
		fmt.Sprintf("nproc: %d  GOMAXPROCS: %d", runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		fmt.Sprintf("go: %s %s/%s", runtime.Version(), runtime.GOOS, runtime.GOARCH),
		"checkpoint filesystem: " + fsType(dir),
	}
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse", 0x2FC12FC1: "zfs",
		0x61756673: "aufs", 0x5346414F: "afs", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("statfs magic %#x", st.Type)
}

// result is the JSON object the run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintln(w, title)
	for _, m := range ms {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("n=%d", m.n)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-7s %-7s %s\n", m.name, m.value, m.unit, n, m.how)
	}
}

func digestHex(b *bench) string { return hex.EncodeToString(b.digest.Sum(nil)[:16]) }

func writeResult(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
