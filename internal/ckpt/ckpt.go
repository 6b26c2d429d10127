// Package ckpt provides architectural checkpointing, functional
// fast-forward, and interval sampling for the simulator.
//
// A checkpoint is an emu.Snapshot — pure architectural state — serialized in
// a versioned binary format and stored content-addressed under
// (program digest, instruction count). Because the architectural prefix of a
// program is identical across every scheme and size configuration, one
// fast-forward pass serves every sweep point on the same workload: the first
// job pays the functional execution, every later job loads the file and
// boots the detailed core mid-program.
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
type BootState struct {
	Boot   *emu.Snapshot
	Warmup []emu.Commit
	// FFInsts is the number of instructions fast-forwarded functionally
	// (checkpoint position + warmup replay) to build this state.
	FFInsts uint64
}

// Prepare produces the BootState for starting detailed simulation at
// instruction skip, warming with the preceding warmup instructions. When a
// store is supplied, the expensive part — fast-forwarding to skip-warmup —
// is served from the checkpoint store when possible and saved back on miss;
// hit reports which. Within a process at most one fast-forward per
// (program digest, position) runs at a time: later callers for the same
// site wait for it and then load the checkpoint it saved, so a grid of N
// concurrent jobs over one workload fast-forwards it once. A nil store
// always fast-forwards from reset.
//
// If the program halts before skip, the returned BootState has a halted
// snapshot; the detailed core then has nothing to simulate and callers
// normally fall back to the functional result.
func Prepare(store *Store, p *prog.Program, d Digest, skip, warmup uint64) (*BootState, bool, error) {
	if warmup > skip {
		warmup = skip
	}
	base := skip - warmup

	s, hit, err := machineAt(store, p, d, base)
	if err != nil {
		return nil, false, err
	}

	bs := &BootState{FFInsts: skip}
	if warmup > 0 && !s.Halted() {
		if bs.Warmup, err = captureWarmup(s, warmup); err != nil {
			return nil, false, fmt.Errorf("ckpt: warmup replay at inst %d: %w", s.InstCount(), err)
		}
	}
	bs.Boot = s.Snapshot()
	if bs.Boot.InstCount < skip {
		bs.FFInsts = bs.Boot.InstCount
	}
	return bs, hit, nil
}

// captureWarmup runs s for up to n instructions and returns the commit row
// of each, the warmup trace a BootState carries.
func captureWarmup(s *emu.State, n uint64) ([]emu.Commit, error) {
	rows := make([]emu.Commit, 0, n)
	_, err := s.Run(n, func(c emu.Commit) { rows = append(rows, c) })
	return rows, err
}

// machineAt returns a machine at instruction base: booted from the
// store's checkpoint when it has one (hit), else fast-forwarded from reset
// and saved. The fast-forward runs under its site's lock, and a caller that
// waited for the lock checks the store again before starting its own.
func machineAt(store *Store, p *prog.Program, d Digest, base uint64) (*emu.State, bool, error) {
	if store == nil {
		s := emu.New(p)
		_, err := Advance(s, base)
		return s, false, err
	}
	load := func() (*emu.State, bool, error) {
		sn, ok, err := store.Load(d, base)
		if !ok || err != nil {
			return nil, false, err
		}
		return emu.NewFromSnapshot(p, sn), true, nil
	}
	if s, ok, err := load(); ok || err != nil {
		return s, ok, err
	}
	mu, _ := siteLocks.LoadOrStore(site{d, base}, new(sync.Mutex))
	mu.(*sync.Mutex).Lock()
	defer mu.(*sync.Mutex).Unlock()
	if s, ok, err := load(); ok || err != nil {
		return s, ok, err
	}
	s := emu.New(p)
	if _, err := Advance(s, base); err != nil {
		return nil, false, err
	}
	if !s.Halted() {
		if err := store.Save(d, s.Snapshot()); err != nil {
			return nil, false, err
		}
	}
	return s, false, nil
}

// site names one checkpoint position of one program.
type site struct {
	d    Digest
	base uint64
}

// siteLocks holds one *sync.Mutex per site this process has had to
// fast-forward. Entries are never removed; a process sees few sites.
var siteLocks sync.Map
