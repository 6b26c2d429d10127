package prog

import (
	"crypto/sha256"
	"encoding/binary"
)

// Digest returns p's content identity: a SHA-256 over the entry point, every
// instruction and the initial data image. The encoding is explicit
// field-by-field serialization, so any change to instruction encoding or
// layout constants that alters execution also alters the digest, and two
// programs with equal digests execute identically. A Program never changes,
// so the digest is computed on the first call and kept; the fast-forward
// run path keys every checkpoint by it (ckpt.ProgramDigest).
func (p *Program) Digest() [sha256.Size]byte {
	p.digestOnce.Do(func() { p.digest = p.hash() })
	return p.digest
}

func (p *Program) hash() [sha256.Size]byte {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte("regreuse-ckpt-program|v1|"))
	u64(p.entry)
	u64(uint64(len(p.insts)))
	for i := range p.insts {
		in := &p.insts[i]
		u64(uint64(in.Op))
		u64(uint64(in.Rd) | uint64(in.Rs1)<<8 | uint64(in.Rs2)<<16)
		u64(uint64(in.Imm))
	}
	// The data image hashes as (address, byte) pairs in ascending address
	// order. The runs are already in that order, so they stream through
	// recs, one Write per full buffer.
	u64(uint64(p.dataLen))
	const rec = 9
	var recs [rec * 512]byte
	n := 0
	for _, seg := range p.data {
		for i, b := range seg.Bytes {
			binary.LittleEndian.PutUint64(recs[n:], seg.Addr+uint64(i))
			recs[n+8] = b
			if n += rec; n == len(recs) {
				h.Write(recs[:])
				n = 0
			}
		}
	}
	h.Write(recs[:n])
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}
