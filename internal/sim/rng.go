// Package sim provides the deterministic simulation kernel used by every
// experiment in this repository: seeded random-number streams, a discrete
// event queue ordered by virtual time, and the scheduler that drives it.
//
// Nothing in this package (or its dependents) reads the wall clock or the
// global math/rand state; all randomness flows from an explicit seed so
// that every figure in the paper reproduction is replayable bit-for-bit.
package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// countingSource wraps a rand.Source64 and counts how many source words
// have been consumed. Every math/rand draw — Int63, Uint64, Float64,
// the rejection-sampled Intn, the looping NormFloat64 — bottoms out in
// one source word per state advance, so the count IS the stream
// position: recreating the source from the seed and discarding the same
// number of words lands on the identical stream state. This is what
// makes RNG streams snapshotable without access to math/rand's
// unexported internals.
//
// The wrapper implements Source64, so rand.Rand takes the same
// single-word Uint64 path it takes on a bare rand.NewSource — the draw
// sequence is bit-identical to the pre-counting implementation.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// RNG is a deterministic random stream that can derive independent named
// sub-streams. Deriving the same label from the same parent always yields
// the same stream, which lets a simulation hand out generators to its
// components without the components' draw order perturbing one another.
//
// Every stream tracks its position (source words consumed since the
// seed), so engine snapshots can persist (seed, position) and restore the
// exact stream state with SkipTo.
type RNG struct {
	seed int64
	cs   *countingSource
	*rand.Rand
}

// NewRNG returns a stream rooted at seed.
func NewRNG(seed int64) *RNG {
	cs := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return &RNG{seed: seed, cs: cs, Rand: rand.New(cs)}
}

// Seed reports the seed this stream was created with.
func (r *RNG) Seed() int64 { return r.seed }

// Pos reports the stream position: how many source words have been
// consumed since the seed. (seed, Pos) fully determines the stream
// state; a fresh NewRNG(seed) fast-forwarded with SkipTo(Pos) produces
// the identical remaining sequence.
func (r *RNG) Pos() uint64 { return r.cs.n }

// SkipTo fast-forwards the stream to the given position by discarding
// source words. It errors if the stream is already past pos — positions
// only move forward.
func (r *RNG) SkipTo(pos uint64) error {
	if pos < r.cs.n {
		return fmt.Errorf("sim: rng at position %d cannot rewind to %d", r.cs.n, pos)
	}
	for r.cs.n < pos {
		r.cs.n++
		r.cs.src.Uint64()
	}
	return nil
}

// Derive returns an independent stream identified by label. The derived
// seed mixes the parent seed with an FNV-1a hash of the label, so distinct
// labels produce decorrelated streams while identical labels reproduce.
// Deriving consumes nothing from the parent stream.
func (r *RNG) Derive(label string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return NewRNG(r.seed ^ int64(h.Sum64()))
}

// DeriveN returns an independent stream identified by label and an index,
// for per-entity streams such as one generator per peer.
func (r *RNG) DeriveN(label string, n int) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	seed := r.seed ^ int64(h.Sum64())
	// The finalizer over the index keeps adjacent indices decorrelated
	// without allocating a label string per entity.
	return NewRNG(int64(SplitMix64(uint64(seed) + Golden*uint64(n+1))))
}

// Golden is splitmix64's increment, 2⁶⁴ divided by the golden ratio.
// Adding (id+1)·Golden before SplitMix64 spreads consecutive ids over
// the whole 64-bit range.
const Golden = 0x9e3779b97f4a7c15

// SplitMix64 is the splitmix64 finalizer, a bijective 64-bit mixer.
// Every schedule-free derivation in the engine is built from it:
// DeriveN's per-index seeds, internal/fault's decision hashes, and the
// sharded engine's per-peer streams and merge keys (internal/core).
// Each hashes (seed, ids) instead of drawing from a shared stream, so
// its outcome cannot depend on goroutine schedule or shard layout.
func SplitMix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
