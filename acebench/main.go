// Command acebench measures acesim-shaped runs of the ACE simulator.
// It drives one named workload through the public calls acesim makes,
// times each call from outside, checks every step's outputs against
// computations of its own, and prints one JSON result as its last line.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash acebench/run.sh --workload churn --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, prints the layer
// breakdown, and writes the spans as Chrome trace-event JSON (loadable
// in Perfetto) under --out. See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("acebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: churn | query | faults")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 15, "least measured wall time; every run also makes its workload's fixed steps")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	out := fs.String("out", ".bench_build", "directory for the checkpoint store and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "acebench: unknown workload %q (churn | query | faults)\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "acebench: --trace takes 0 or 1")
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintln(stderr, "acebench: --seconds must not be negative")
		return 2
	}
	traced := *trace == 1
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "acebench:", err)
		return 1
	}

	b := newBench(w, *seed, traced, storeDir(*out, w.name))
	if err := b.run(time.Duration(*seconds * float64(time.Second))); err != nil {
		fmt.Fprintln(stderr, "acebench:", err)
		return 1
	}
	if traced {
		b.checkBreakdown()
	}
	peak := peakRSSMB()

	fmt.Fprintf(stdout, "acebench %s seed %d: %d peer slots (%d vacant) on %d nodes, h=%d, shards=%d, churn %d/step (crash %.2f), faults %.2f, %d ACE + %d blind floods/step, %d responders\n",
		w.name, *seed, w.peers, w.vacant, w.phys, w.depth, w.shards, w.churn, w.crash, w.faultRate, w.aceQueries, w.blindQueries, w.responders)
	for _, line := range host(filepath.Dir(b.dir)) {
		fmt.Fprintln(stdout, "host", line)
	}
	fmt.Fprintf(stdout, "set-ups %d (warm-up %d steps each), measured steps %d (fixed %d)\n",
		w.setups, w.warmup, len(b.records), w.steps)
	fmt.Fprintf(stdout, "digest %s (steps 1-%d after warm-up: simulated statistics and the last checkpoint)\n", digestHex(b), w.steps)

	attempted := b.ops + b.c.attempted
	failed := b.opFails + b.c.failed
	for _, m := range b.c.messages {
		fmt.Fprintln(stderr, "acebench: failed:", m)
	}
	fmt.Fprintf(stdout, "operations: %d attempted (%d steps/queries/checkpoints, %d checks), %d failed\n",
		attempted, b.ops, b.c.attempted, failed)

	// Both modes print the end-to-end figures; a traced run's differ
	// from an untraced run's by the tracing overhead.
	metrics := b.endToEnd(peak)
	printMetrics(stdout, "end-to-end metrics:", metrics)
	if traced {
		b.printLayerTable(stdout)
		metrics = b.perLayer()
		printMetrics(stdout, "per-layer metrics:", metrics)
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		if err := writeSpans(path, b); err != nil {
			fmt.Fprintln(stderr, "acebench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(b.r.spans), path)
	}

	res := result{Correct: b.c.failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]resultValue{}}
	for _, m := range metrics {
		res.Metrics[m.name] = resultValue{Value: m.value, Unit: m.unit}
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "acebench:", err)
		return 1
	}
	return 0
}

// writeSpans writes the run's spans as Chrome trace-event JSON.
func writeSpans(path string, b *bench) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	err = writeChrome(f, b.r.spans, selfTimes(b.r.spans))
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("write trace: %w", cerr)
	}
	return err
}
