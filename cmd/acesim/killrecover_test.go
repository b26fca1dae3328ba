package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ace/internal/snap"
)

// TestMain doubles as the harness child: when ACESIM_CHILD carries a
// 0x1f-joined argument list, this process IS acesim — the kill-recover
// test re-execs the test binary so SIGKILL lands on a real acesim run
// with no test scaffolding between the signal and the checkpoint store.
func TestMain(m *testing.M) {
	if argStr := os.Getenv("ACESIM_CHILD"); argStr != "" {
		os.Exit(run(strings.Split(argStr, "\x1f")))
	}
	os.Exit(m.Run())
}

// workloadArgs is the shared run configuration: churn, crashes and an
// active fault plan, so the state being recovered is as history-laden
// as the engine gets.
func workloadArgs(extra ...string) []string {
	return append([]string{
		"-seed", "42", "-peers", "200", "-phys", "600", "-c", "6",
		"-churnpeers", "3", "-loss", "0.15", "-crash", "0.3",
		"-queries", "20", "-steps", "16",
	}, extra...)
}

// loadNewest loads the newest valid checkpoint in dir and returns its
// canonical encoding.
func loadNewest(t *testing.T, dir string) (*snap.Snapshot, []byte) {
	t.Helper()
	store, err := snap.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, warnings, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range warnings {
		t.Logf("restore warning: %s", w)
	}
	data, err := snap.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return s, data
}

// TestKillRecover is the crash-safety harness: a child acesim process
// is SIGKILLed mid-run between checkpoints, a second run restores from
// whatever the dead process left on disk and replays to the target
// step, and the final checkpoint must be byte-for-byte identical to an
// uninterrupted run's. A third recovery does the same after the newest
// slot is truncated, proving the fallback slot also recovers exactly.
func TestKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a paced child process")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(t.TempDir(), "ref")
	childDir := filepath.Join(t.TempDir(), "child")

	// Uninterrupted reference run, in-process.
	if code := run(workloadArgs("-checkpoint", refDir)); code != 0 {
		t.Fatalf("reference run exited %d", code)
	}
	refSnap, refBytes := loadNewest(t, refDir)
	if refSnap.Meta.Step != 16 {
		t.Fatalf("reference checkpoint at step %d, want 16", refSnap.Meta.Step)
	}

	// Child run, paced so the kill lands mid-run; SIGKILL is delivered
	// once the store holds a checkpoint a few steps in. Polling Load
	// against the live store is itself part of the test: slots under
	// construction are temp files until the atomic rename, so a reader
	// only ever sees complete checkpoints.
	child := exec.Command(exe)
	child.Env = append(os.Environ(),
		"ACESIM_CHILD="+strings.Join(workloadArgs("-checkpoint", childDir, "-pace", "50ms"), "\x1f"))
	child.Stdout, child.Stderr = nil, os.Stderr
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			child.Process.Kill()
			child.Wait()
			t.Fatal("child never reached step 4")
		}
		if store, err := snap.OpenStore(childDir); err == nil {
			if s, _, err := store.Load(); err == nil && s.Meta.Step >= 4 {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	child.Process.Kill()
	child.Wait()
	killed, _ := loadNewest(t, childDir)
	if killed.Meta.Step >= 16 {
		t.Fatalf("child finished (step %d) before the kill; raise -pace", killed.Meta.Step)
	}
	t.Logf("child killed at checkpoint step %d", killed.Meta.Step)

	// Keep a pristine copy of the dead process's store for the
	// corruption variant before recovery advances it.
	damagedDir := filepath.Join(t.TempDir(), "damaged")
	copyStore(t, childDir, damagedDir)

	// Recover and replay to the reference target.
	if code := run([]string{"-restore", childDir, "-replay-to", "16"}); code != 0 {
		t.Fatalf("recovery run exited %d", code)
	}
	gotSnap, gotBytes := loadNewest(t, childDir)
	if gotSnap.Meta.Step != 16 {
		t.Fatalf("recovered checkpoint at step %d, want 16", gotSnap.Meta.Step)
	}
	if !bytes.Equal(refBytes, gotBytes) {
		t.Fatalf("recovered final state differs from uninterrupted run (%d vs %d bytes)", len(gotBytes), len(refBytes))
	}

	// Torn-write variant: truncate the newest slot (as a crash mid-write
	// would, had the store not used temp+rename) and recover again — the
	// checksum rejects it, the older slot restores, and the replay still
	// converges to the identical final state.
	truncateNewestSlot(t, damagedDir)
	if code := run([]string{"-restore", damagedDir, "-replay-to", "16"}); code != 0 {
		t.Fatalf("fallback recovery run exited %d", code)
	}
	fbSnap, fbBytes := loadNewest(t, damagedDir)
	if fbSnap.Meta.Step != 16 {
		t.Fatalf("fallback recovery at step %d, want 16", fbSnap.Meta.Step)
	}
	if !bytes.Equal(refBytes, fbBytes) {
		t.Fatal("fallback recovery final state differs from uninterrupted run")
	}
}

// TestRestoreRejectsConflictingFlags pins the service-mode contract
// that a restore adopts the checkpointed configuration and refuses
// explicit flags that contradict it, and that flag values no run can
// use exit 2 before anything runs.
func TestRestoreRejectsConflictingFlags(t *testing.T) {
	dir := t.TempDir()
	if code := run([]string{"-seed", "3", "-peers", "120", "-phys", "400", "-steps", "2", "-checkpoint", dir}); code != 0 {
		t.Fatalf("seed run exited %d", code)
	}
	for _, args := range [][]string{
		{"-restore", dir, "-peers", "121"},
		{"-restore", dir, "-seed", "4"},
		{"-restore", dir, "-loss", "0.5"},
		{"-restore", dir, "-policy", "naive"},
		// An unknown name is an error, not a silent match for the
		// checkpointed policy.
		{"-restore", dir, "-policy", "bogus", "-replay-to", "3"},
		{"-replay-to", "5"}, // -replay-to without -restore
		// Negative counts are rejected like -every 0, restore or not.
		{"-every", "0"},
		{"-steps", "-2"},
		{"-queries", "-3"},
		{"-churnpeers", "-5"},
		{"-restore", dir, "-steps", "-2"},
		{"-restore", dir, "-replay-to", "-3"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("run(%v) exited %d, want 2", args, code)
		}
	}
	// Matching explicit flags are fine.
	if code := run([]string{"-restore", dir, "-peers", "120", "-replay-to", "4"}); code != 0 {
		t.Errorf("restore with matching flags failed")
	}
}

func copyStore(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// truncateNewestSlot finds the slot file holding the highest step and
// cuts it off mid-body.
func truncateNewestSlot(t *testing.T, dir string) {
	t.Helper()
	newest, step := "", int64(-1)
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("snap-%d.ace", i))
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if s, err := snap.Decode(data); err == nil && s.Meta.Step > step {
			newest, step = path, s.Meta.Step
		}
	}
	if newest == "" {
		t.Fatal("no decodable slot to damage")
	}
	info, err := os.Stat(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	t.Logf("truncated %s (step %d)", newest, step)
}
