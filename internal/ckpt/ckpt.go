// Package ckpt provides architectural checkpointing, functional
// fast-forward, and interval sampling for the simulator.
//
// A checkpoint is an emu.Snapshot — pure architectural state — serialized in
// a versioned binary format and stored content-addressed under
// (program digest, instruction count). Because the architectural prefix of a
// program is identical across every scheme and size configuration, one
// fast-forward pass serves every sweep point on the same workload: the first
// job pays the functional execution, and every later job boots the detailed
// core mid-program from the boot state the store kept in memory, or else
// from the saved file.
package ckpt

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/emu"
	"repro/internal/prog"
)

// Digest is the content identity of a program: instructions, initial data,
// and entry point. Two programs with equal digests execute identically, so a
// checkpoint taken on one is valid for the other.
type Digest [sha256.Size]byte

// String returns the full lowercase hex form.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:]) }

// Short returns a 16-hex-digit prefix for filenames and log lines.
func (d Digest) Short() string { return fmt.Sprintf("%x", d[:8]) }

// ProgramDigest returns p's content digest (prog.Program.Digest), the key
// every checkpoint of p is stored under. It is computed once per Program.
func ProgramDigest(p *prog.Program) Digest { return Digest(p.Digest()) }

// FastForward functionally executes p from reset to exactly n instructions
// (or halt, whichever comes first) and returns the architectural snapshot.
func FastForward(p *prog.Program, n uint64) (*emu.Snapshot, error) {
	s := emu.New(p)
	return Advance(s, n)
}

// Advance runs an existing machine forward to absolute instruction count n
// and snapshots it. It is a no-op when the machine is already at (or past) n.
func Advance(s *emu.State, n uint64) (*emu.Snapshot, error) {
	for s.InstCount() < n && !s.Halted() {
		if _, err := s.StepN(n - s.InstCount()); err != nil {
			return nil, fmt.Errorf("ckpt: fast-forward at inst %d: %w", s.InstCount(), err)
		}
	}
	return s.Snapshot(), nil
}

// BootState is everything the detailed core needs to start mid-program: the
// architectural snapshot at the boot point, plus the functionally-executed
// commit trace of the Warmup instructions immediately preceding it, which
// the core replays into its caches and branch predictor before cycle zero.
// A BootState a store keeps is shared by concurrent jobs and must not be
// written.
type BootState struct {
	Boot   *emu.Snapshot
	Warmup []emu.Commit
	// FFInsts is the number of instructions fast-forwarded functionally
	// (checkpoint position + warmup replay) to build this state.
	FFInsts uint64
}

// Served says how PrepareServed came by a boot state.
type Served uint8

const (
	// Built: fast-forwarded from reset, and saved to the store if there is
	// one. This is a checkpoint miss.
	Built Served = iota
	// Loaded: booted from the store's saved checkpoint; only the warmup
	// capture ran. This is a hit.
	Loaded
	// Cached: the store held the boot state in memory, so no instruction
	// ran. This is a hit too.
	Cached
)

// String returns "miss", "hit" or "cached".
func (s Served) String() string {
	switch s {
	case Loaded:
		return "hit"
	case Cached:
		return "cached"
	}
	return "miss"
}

// Prepare produces the BootState for starting detailed simulation at
// instruction skip, warming with the preceding warmup instructions. hit
// reports whether the store served it, from its memory or its saved
// checkpoint; PrepareServed tells the two apart.
func Prepare(store *Store, p *prog.Program, d Digest, skip, warmup uint64) (*BootState, bool, error) {
	bs, how, err := PrepareServed(store, p, d, skip, warmup)
	return bs, how != Built, err
}

// PrepareServed is Prepare reporting how the boot state was served. A
// store keeps the boot state it served last in memory, so a repeated site
// skips the checkpoint read, decode, warmup capture and snapshot. A kept
// BootState is shared by every caller that asks for its site, concurrent
// ones included: callers must treat it as read-only, as pipeline.New does
// (it clones the memory image).
//
// Otherwise the expensive part, fast-forwarding to skip-warmup, is served
// from the store's checkpoint when possible and saved back on a miss.
// Within a process at most one fast-forward per (program digest, position)
// runs at a time: later callers for the same site wait for it and then
// take the boot state it kept, or load the checkpoint it saved if another
// site's state has taken its place, so a grid of N concurrent jobs over
// one workload fast-forwards it once. A nil store keeps nothing and always
// fast-forwards from reset.
//
// If the program halts before skip, the returned BootState has a halted
// snapshot; the detailed core then has nothing to simulate and callers
// normally fall back to the functional result.
func PrepareServed(store *Store, p *prog.Program, d Digest, skip, warmup uint64) (*BootState, Served, error) {
	if warmup > skip {
		warmup = skip
	}
	base := skip - warmup
	if store == nil {
		s, err := fastForward(nil, p, d, base)
		if err != nil {
			return nil, Built, err
		}
		bs, err := bootAt(s, skip, warmup)
		return bs, Built, err
	}

	k := bootKey{d, skip, warmup}
	if bs := store.cachedBoot(k); bs != nil {
		return bs, Cached, nil
	}
	how := Loaded
	s, err := store.machine(p, d, base)
	if s == nil && err == nil {
		// A miss: fast-forward under the site's lock. A caller that waited
		// for the lock finds what its holder kept, or failing that the
		// checkpoint it saved, before starting its own fast-forward.
		mu, _ := siteLocks.LoadOrStore(site{d, base}, new(sync.Mutex))
		mu.(*sync.Mutex).Lock()
		defer mu.(*sync.Mutex).Unlock()
		if bs := store.cachedBoot(k); bs != nil {
			return bs, Cached, nil
		}
		if s, err = store.machine(p, d, base); s == nil && err == nil {
			how = Built
			s, err = fastForward(store, p, d, base)
		}
	}
	if err != nil {
		return nil, Built, err
	}
	bs, err := bootAt(s, skip, warmup)
	if err != nil {
		return nil, Built, err
	}
	store.keepBoot(k, bs)
	return bs, how, nil
}

// bootAt captures the warmup instructions s runs from its position and
// snapshots it at the boot point skip (or where it halted).
func bootAt(s *emu.State, skip, warmup uint64) (*BootState, error) {
	bs := &BootState{FFInsts: skip}
	if warmup > 0 && !s.Halted() {
		var err error
		if bs.Warmup, err = captureWarmup(s, warmup); err != nil {
			return nil, fmt.Errorf("ckpt: warmup replay at inst %d: %w", s.InstCount(), err)
		}
	}
	bs.Boot = s.Snapshot()
	if bs.Boot.InstCount < skip {
		bs.FFInsts = bs.Boot.InstCount
	}
	return bs, nil
}

// captureWarmup runs s for up to n instructions and returns the commit row
// of each, the warmup trace a BootState carries.
func captureWarmup(s *emu.State, n uint64) ([]emu.Commit, error) {
	rows := make([]emu.Commit, 0, n)
	_, err := s.Run(n, func(c emu.Commit) { rows = append(rows, c) })
	return rows, err
}

// fastForward runs p from reset to instruction base and, when there is a
// store and the program has not halted, saves the checkpoint there.
func fastForward(store *Store, p *prog.Program, d Digest, base uint64) (*emu.State, error) {
	s := emu.New(p)
	if _, err := Advance(s, base); err != nil {
		return nil, err
	}
	if store != nil && !s.Halted() {
		if err := store.Save(d, s.Snapshot()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// site names one checkpoint position of one program.
type site struct {
	d    Digest
	base uint64
}

// siteLocks holds one *sync.Mutex per site this process has had to
// fast-forward. Entries are never removed; a process sees few sites.
var siteLocks sync.Map
