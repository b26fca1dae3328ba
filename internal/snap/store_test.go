package snap

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStoreSaveLoadAlternatesSlots(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(); err == nil {
		t.Fatal("empty store loaded")
	}

	s := buildSnapshot(t, 11, 6)
	for step := int64(1); step <= 3; step++ {
		s.Meta.Step = step
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		got, warnings, err := st.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(warnings) != 0 {
			t.Fatalf("clean store warned: %v", warnings)
		}
		if got.Meta.Step != step {
			t.Fatalf("loaded step %d, want %d", got.Meta.Step, step)
		}
	}
	// Three saves across two slots: both files exist, no temp debris.
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "snap-0.ace" || names[1] != "snap-1.ace" {
		t.Fatalf("store directory holds %v", names)
	}
}

// TestStoreFallsBackToOlderSlot is the corruption acceptance case: when
// the newest slot is torn (truncated) or bit-rotted, Load must warn and
// return the older slot instead of failing.
func TestStoreFallsBackToOlderSlot(t *testing.T) {
	for _, damage := range []struct {
		name string
		hurt func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/3] }},
		{"bitrot", func(d []byte) []byte {
			d = append([]byte(nil), d...)
			d[len(d)/2] ^= 0x40
			return d
		}},
	} {
		t.Run(damage.name, func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s := buildSnapshot(t, 13, 6)
			s.Meta.Step = 10
			if err := st.Save(s); err != nil {
				t.Fatal(err)
			}
			s.Meta.Step = 20
			if err := st.Save(s); err != nil {
				t.Fatal(err)
			}
			// Find and damage the newer slot (step 20).
			_, slot, _, err := st.newestValid()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(st.Dir(), slotName(slot))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage.hurt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			got, warnings, err := st.Load()
			if err != nil {
				t.Fatal(err)
			}
			if got.Meta.Step != 10 {
				t.Fatalf("fallback returned step %d, want 10", got.Meta.Step)
			}
			if len(warnings) != 1 || !strings.Contains(warnings[0], "falling back") {
				t.Fatalf("expected a fallback warning, got %v", warnings)
			}

			// The next save must overwrite the corrupt slot, healing the
			// store back to two valid checkpoints.
			s.Meta.Step = 30
			if err := st.Save(s); err != nil {
				t.Fatal(err)
			}
			got, warnings, err = st.Load()
			if err != nil || len(warnings) != 0 {
				t.Fatalf("store did not heal: step=%v warnings=%v err=%v", got.Meta.Step, warnings, err)
			}
			if got.Meta.Step != 30 {
				t.Fatalf("healed load returned step %d, want 30", got.Meta.Step)
			}
		})
	}
}

func TestStoreBothSlotsCorruptErrors(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := buildSnapshot(t, 17, 5)
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	s.Meta.Step++
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(filepath.Join(st.Dir(), slotName(i)), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, warnings, err := st.Load(); err == nil {
		t.Fatal("load succeeded with both slots corrupt")
	} else if len(warnings) != 2 {
		t.Fatalf("want 2 warnings, got %v", warnings)
	}
}

// TestStoreSameStateSameBytes: saving the same engine state twice (the
// SIGTERM final checkpoint landing on the step a periodic save already
// captured) produces byte-identical slots.
func TestStoreSameStateSameBytes(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := buildSnapshot(t, 19, 7)
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(filepath.Join(st.Dir(), slotName(0)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(st.Dir(), slotName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identical states encoded to different bytes")
	}
}

// slotStep decodes one slot file and returns its step, or -1 when the
// slot is missing or does not decode.
func slotStep(t *testing.T, st *Store, slot int) int64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(st.Dir(), slotName(slot)))
	if err != nil {
		return -1
	}
	s, err := Decode(data)
	if err != nil {
		return -1
	}
	return s.Meta.Step
}

// TestStoreSaveRemembersSlot: with rising steps, saves alternate between
// the slots, and each one remembers the slot it wrote with a checksum of
// its bytes.
func TestStoreSaveRemembersSlot(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := buildSnapshot(t, 23, 6)
	for step := int64(1); step <= 5; step++ {
		s.Meta.Step = step
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
		slot := int(1 - step%2) // 0, 1, 0, 1, 0
		if !st.last.ok || st.last.slot != slot || st.last.step != step {
			t.Fatalf("after step %d: remembered %+v, want slot %d", step, st.last, slot)
		}
		if got := slotStep(t, st, slot); got != step {
			t.Fatalf("step %d landed elsewhere: slot %d holds step %d", step, slot, got)
		}
		if step > 1 {
			if got := slotStep(t, st, 1-slot); got != step-1 {
				t.Fatalf("after step %d the other slot holds step %d, want %d", step, got, step-1)
			}
		}
	}
}

// TestStoreSaveAfterRememberedSlotDamaged: when the remembered slot no
// longer holds the bytes written there — corrupted or deleted between
// saves — Save falls back to decoding both slots and, as before,
// overwrites the damaged slot instead of the surviving checkpoint.
func TestStoreSaveAfterRememberedSlotDamaged(t *testing.T) {
	for _, damage := range []struct {
		name string
		hurt func(path string) error
	}{
		{"bitrot", func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x40
			return os.WriteFile(path, data, 0o644)
		}},
		{"deleted", os.Remove},
	} {
		t.Run(damage.name, func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			s := buildSnapshot(t, 29, 6)
			for step := int64(1); step <= 2; step++ {
				s.Meta.Step = step
				if err := st.Save(s); err != nil {
					t.Fatal(err)
				}
			}
			// Step 2 sits in slot 1, the remembered one.
			if err := damage.hurt(filepath.Join(st.Dir(), slotName(1))); err != nil {
				t.Fatal(err)
			}
			s.Meta.Step = 3
			if err := st.Save(s); err != nil {
				t.Fatal(err)
			}
			if a, b := slotStep(t, st, 0), slotStep(t, st, 1); a != 1 || b != 3 {
				t.Fatalf("slots hold steps %d and %d, want 1 and 3", a, b)
			}
			s.Meta.Step = 4
			if err := st.Save(s); err != nil {
				t.Fatal(err)
			}
			if a, b := slotStep(t, st, 0), slotStep(t, st, 1); a != 4 || b != 3 {
				t.Fatalf("slots hold steps %d and %d, want 4 and 3", a, b)
			}
		})
	}
}

// TestStoreSaveEqualStepsKeepTieRule: at equal steps newestValid favors
// slot 0, so repeated saves of one step keep overwriting slot 1, whether
// the target comes from the remembered slot or from decoding both.
func TestStoreSaveEqualStepsKeepTieRule(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := buildSnapshot(t, 31, 6)
	s.Meta.Step = 7
	for i := 0; i < 4; i++ {
		s.Meta.Queries = int64(i) // tells the saves apart
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	load := func(slot int) *Snapshot {
		data, err := os.ReadFile(filepath.Join(st.Dir(), slotName(slot)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if r0, r1 := load(0).Meta.Queries, load(1).Meta.Queries; r0 != 0 || r1 != 3 {
		t.Fatalf("slots hold saves %d and %d, want 0 and 3", r0, r1)
	}
}

// TestStoreSaveErrorForgetsSlot: a failed write may have replaced the
// remembered slot's bytes, so the Store forgets it and the next Save
// decodes both slots.
func TestStoreSaveErrorForgetsSlot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := buildSnapshot(t, 37, 6)
	s.Meta.Step = 1
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s.Meta.Step = 2
	if err := st.Save(s); err == nil {
		t.Fatal("save into a removed directory succeeded")
	}
	if st.last.ok {
		t.Fatalf("failed save left %+v remembered", st.last)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s.Meta.Step = 3
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	if got := slotStep(t, st, 0); got != 3 {
		t.Fatalf("slot 0 holds step %d, want 3", got)
	}
}
