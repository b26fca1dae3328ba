package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ace/internal/obs"
)

// TestCrashDebrisReachesRounds: a crashed peer's half-open edges must
// survive until a round's probes find and purge them, so churn may not
// rejoin a slot in the step that emptied it (a rejoin purges the slot's
// debris at once). The -metrics stream of a -crash run must therefore
// report purged edges.
func TestCrashDebrisReachesRounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	const steps = 4
	args := []string{
		"-seed", "42", "-peers", "200", "-phys", "600", "-c", "6",
		"-churnpeers", "6", "-crash", "0.5", "-queries", "2", "-steps", fmt.Sprint(steps),
		"-metrics", path,
	}
	if code := run(args); code != 0 {
		t.Fatalf("acesim exited %d", code)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	rounds, purged := 0, 0
	for _, r := range recs {
		if r.Type == "round" {
			var line roundLine
			if err := json.Unmarshal(r.Round, &line); err != nil {
				t.Fatal(err)
			}
			rounds++
			purged += line.PurgedEdges
		}
	}
	if rounds != steps {
		t.Fatalf("metrics stream holds %d round records, want %d", rounds, steps)
	}
	if purged == 0 {
		t.Fatal("no round purged crash debris")
	}
}
