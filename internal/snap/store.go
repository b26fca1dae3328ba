package snap

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Store is the dual-slot checkpoint directory. Saves alternate between
// snap-0.ace and snap-1.ace, always overwriting the stale slot, so one
// fully valid checkpoint survives a crash at any point of a save:
//
//  1. the bytes land in a temp file in the same directory,
//  2. the temp file is fsynced,
//  3. it is renamed over the slot (atomic on POSIX),
//  4. the directory is fsynced so the rename itself is durable.
//
// A kill before (3) leaves the old slot intact; a kill after leaves the
// new one. Load prefers the newest decodable slot and falls back to the
// other with a warning when the newest is torn or bit-rotted. A Store
// assumes it is the only writer of its directory, and Save is not safe
// for concurrent use.
type Store struct {
	dir string
	// last remembers the previous Save's slot while that slot holds the
	// newest valid checkpoint, so the next Save can pick its target from
	// one read and a checksum instead of decoding both slots.
	last lastSave
}

// lastSave describes a slot written by this Store.
type lastSave struct {
	ok   bool
	slot int
	step int64  // Meta.Step of the checkpoint written
	sum  uint32 // crc32c of the slot's bytes
}

// slotName returns the file name of slot i ∈ {0, 1}.
func slotName(i int) string { return fmt.Sprintf("snap-%d.ace", i) }

// OpenStore opens (creating if needed) a checkpoint directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snap: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Save encodes the snapshot and writes it crash-safely into the slot
// NOT holding the newest valid checkpoint, so interrupting this save
// can never destroy the best previous state.
func (st *Store) Save(s *Snapshot) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	target, newest, ok := st.target()
	st.last = lastSave{}
	if err := st.writeSlot(target, data); err != nil {
		return err
	}
	// Remember the slot only while it is the one newestValid would pick
	// (highest step, ties to slot 0).
	if step := s.Meta.Step; !ok || step > newest || (step == newest && target == 0) {
		st.last = lastSave{ok: true, slot: target, step: step, sum: crc32.Checksum(data, castagnoli)}
	}
	return nil
}

// target returns the slot Save overwrites, the one not holding the
// newest valid checkpoint, with that checkpoint's step; ok is false
// when no slot holds a valid checkpoint. While the remembered slot still
// holds the bytes written there, it is the newest and the choice costs
// one read and a checksum; otherwise both slots are decoded.
func (st *Store) target() (slot int, newest int64, ok bool) {
	if l := st.last; l.ok {
		data, err := os.ReadFile(filepath.Join(st.dir, slotName(l.slot)))
		if err == nil && crc32.Checksum(data, castagnoli) == l.sum {
			return 1 - l.slot, l.step, true
		}
	}
	if best, slot, _, err := st.newestValid(); err == nil {
		return 1 - slot, best.Meta.Step, true
	}
	return 0, 0, false
}

func (st *Store) writeSlot(slot int, data []byte) error {
	final := filepath.Join(st.dir, slotName(slot))
	tmp, err := os.CreateTemp(st.dir, slotName(slot)+".tmp*")
	if err != nil {
		return fmt.Errorf("snap: save: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("snap: save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snap: save: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snap: save: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("snap: save: %w", err)
	}
	return syncDir(st.dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snap: save: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snap: save: sync %s: %w", dir, err)
	}
	return nil
}

// Load returns the newest valid checkpoint. When the newest slot is
// corrupt or torn, it falls back to the other and reports what happened
// in warnings; the error is non-nil only when no slot decodes.
func (st *Store) Load() (*Snapshot, []string, error) {
	s, _, warnings, err := st.newestValid()
	return s, warnings, err
}

// newestValid decodes both slots and picks the one with the highest
// Meta.Step (ties favor slot 0 — at equal steps the contents are
// identical by canonicality).
func (st *Store) newestValid() (*Snapshot, int, []string, error) {
	var (
		best     *Snapshot
		bestSlot = -1
		warnings []string
		missing  int
	)
	for i := 0; i < 2; i++ {
		path := filepath.Join(st.dir, slotName(i))
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			missing++
			continue
		}
		if err != nil {
			warnings = append(warnings, fmt.Sprintf("%s: %v", slotName(i), err))
			continue
		}
		s, err := Decode(data)
		if err != nil {
			warnings = append(warnings, fmt.Sprintf("%s corrupt, falling back: %v", slotName(i), err))
			continue
		}
		if best == nil || s.Meta.Step > best.Meta.Step {
			best, bestSlot = s, i
		}
	}
	if best == nil {
		if missing == 2 {
			return nil, -1, warnings, fmt.Errorf("snap: no checkpoint in %s", st.dir)
		}
		return nil, -1, warnings, fmt.Errorf("snap: every slot in %s is unreadable", st.dir)
	}
	return best, bestSlot, warnings, nil
}
