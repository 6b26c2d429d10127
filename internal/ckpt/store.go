package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/blob"
	"repro/internal/emu"
	"repro/internal/isa"
)

// FormatVersion is the on-disk checkpoint format version. Bump it whenever
// the layout below changes; readers treat any other version as a miss, so a
// format change silently invalidates every stored checkpoint instead of
// misreading it.
const FormatVersion = 1

// File layout (all integers little-endian):
//
//	magic     [8]byte  "RRCKPT\x00\x00"
//	version   uint32
//	digest    [32]byte program content digest (must match the loader's)
//	instCount uint64
//	pc        uint64
//	halted    uint8
//	x[32]     uint64
//	f[32]     uint64   (IEEE-754 bits)
//	numPages  uint32
//	pages     numPages × { pn uint64, data [4096]byte }  (ascending pn)
//	checksum  [32]byte sha256 of everything above
//
// The trailing checksum makes torn or bit-rotted files detectable: a corrupt
// checkpoint is a cache miss, never a wrong simulation.
var magic = [8]byte{'R', 'R', 'C', 'K', 'P', 'T', 0, 0}

// Store is a content-addressed checkpoint store, designed to sit beside the
// sweep result cache. Storage is pluggable through blob.Store: NewStore
// keeps the classic one-file-per-checkpoint directory, while the sweep
// fabric mounts the same store over a read-through remote backend so one
// worker's fast-forward serves every machine. Writes are atomic at the store
// layer, so concurrent writers of the same key are safe — last write wins
// and both wrote identical bytes.
type Store struct {
	b blob.Store
}

// NewStore opens (creating if needed) a directory-backed checkpoint store.
func NewStore(dir string) (*Store, error) {
	d, err := blob.NewDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: create store: %w", err)
	}
	return &Store{b: d}, nil
}

// NewStoreWith opens a checkpoint store over an arbitrary object store —
// the backend seam the fabric uses to share checkpoints across machines.
func NewStoreWith(b blob.Store) *Store { return &Store{b: b} }

// Key returns the object name serving (digest, instCount).
func (st *Store) Key(d Digest, instCount uint64) string {
	return fmt.Sprintf("%s-%d.ckpt", d.Short(), instCount)
}

// Save writes a snapshot under (digest, snapshot.InstCount).
func (st *Store) Save(d Digest, sn *emu.Snapshot) error {
	key := st.Key(d, sn.InstCount)
	var buf bytes.Buffer
	h := sha256.New()
	if err := encode(io.MultiWriter(&buf, h), d, sn); err != nil {
		return fmt.Errorf("ckpt: save %s: %w", key, err)
	}
	if err := st.b.Put(key, h.Sum(buf.Bytes())); err != nil {
		return fmt.Errorf("ckpt: save %s: %w", key, err)
	}
	return nil
}

// Load retrieves the snapshot stored under (digest, instCount). ok is false
// on any recoverable mismatch — absent object, other format version, digest
// mismatch, truncation, or checksum failure; callers just fast-forward and
// re-save. The error return is reserved for failures that indicate the
// store itself is broken (I/O error, unreachable backend).
func (st *Store) Load(d Digest, instCount uint64) (*emu.Snapshot, bool, error) {
	data, ok, err := st.b.Get(st.Key(d, instCount))
	if err != nil {
		return nil, false, fmt.Errorf("ckpt: load: %w", err)
	}
	if !ok {
		return nil, false, nil
	}
	if len(data) < sha256.Size {
		return nil, false, nil
	}
	payload, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sha256.Sum256(payload) != [sha256.Size]byte(trailer) {
		return nil, false, nil // torn or bit-rotted => miss
	}
	sn, err := decode(bytes.NewReader(payload), d)
	if err != nil || sn.InstCount != instCount {
		return nil, false, nil
	}
	return sn, true, nil
}

func encode(w io.Writer, d Digest, sn *emu.Snapshot) error {
	var buf [8]byte
	u64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := w.Write(buf[:])
		return err
	}
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(buf[:4], FormatVersion)
	if _, err := w.Write(buf[:4]); err != nil {
		return err
	}
	if _, err := w.Write(d[:]); err != nil {
		return err
	}
	if err := u64(sn.InstCount); err != nil {
		return err
	}
	if err := u64(sn.PC); err != nil {
		return err
	}
	var halted byte
	if sn.Halted {
		halted = 1
	}
	if _, err := w.Write([]byte{halted}); err != nil {
		return err
	}
	for _, v := range sn.X {
		if err := u64(v); err != nil {
			return err
		}
	}
	for _, v := range sn.F {
		if err := u64(math.Float64bits(v)); err != nil {
			return err
		}
	}
	pns := sn.Mem.PageNumbers()
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(pns)))
	if _, err := w.Write(buf[:4]); err != nil {
		return err
	}
	for _, pn := range pns {
		if err := u64(pn); err != nil {
			return err
		}
		if _, err := w.Write(sn.Mem.PageData(pn)[:]); err != nil {
			return err
		}
	}
	return nil
}

func decode(r io.Reader, want Digest) (*emu.Snapshot, error) {
	var buf [32]byte
	u64 := func() (uint64, error) {
		if _, err := io.ReadFull(r, buf[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:8]), nil
	}
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return nil, err
	}
	if [8]byte(buf[:8]) != magic {
		return nil, fmt.Errorf("bad magic")
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(buf[:4]) != FormatVersion {
		return nil, fmt.Errorf("format version mismatch")
	}
	if _, err := io.ReadFull(r, buf[:32]); err != nil {
		return nil, err
	}
	if Digest(buf) != want {
		return nil, fmt.Errorf("program digest mismatch")
	}

	sn := &emu.Snapshot{Mem: emu.NewMemory()}
	var err error
	if sn.InstCount, err = u64(); err != nil {
		return nil, err
	}
	if sn.PC, err = u64(); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(r, buf[:1]); err != nil {
		return nil, err
	}
	sn.Halted = buf[0] == 1
	for i := 0; i < isa.NumIntRegs; i++ {
		if sn.X[i], err = u64(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < isa.NumFPRegs; i++ {
		v, err := u64()
		if err != nil {
			return nil, err
		}
		sn.F[i] = math.Float64frombits(v)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, err
	}
	numPages := binary.LittleEndian.Uint32(buf[:4])
	const maxPages = 1 << 20 // 4 GiB of memory image; way past any workload
	if numPages > maxPages {
		return nil, fmt.Errorf("implausible page count %d", numPages)
	}
	var page [4096]byte
	for i := uint32(0); i < numPages; i++ {
		pn, err := u64()
		if err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(r, page[:]); err != nil {
			return nil, err
		}
		sn.Mem.SetPageData(pn, &page)
	}
	return sn, nil
}
