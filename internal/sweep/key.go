package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"

	"repro/internal/workloads"
)

// SchemaVersion is folded into every cache key. Bump it whenever the
// simulator's architectural behavior changes (i.e. whenever the golden-stats
// file is regenerated) or the JobResult schema gains fields: the bump
// invalidates every previously cached result at once, so a stale cache can
// never masquerade as fresh data. The root package's
// TestGoldenMatchesSchemaVersion maps each version to the sha256 of the
// golden-stats file, so a regenerated golden without a bump fails it.
// Version history:
//
//	1: initial engine (PR 3)
//	2: JobResult gained fast-forward/sampling fields (FFInsts, Sampled);
//	   keys gained ff/warm/sample
const SchemaVersion = 2

// Key returns the job's content-addressed cache key: a SHA-256 over an
// explicit, field-by-field serialization of the job parameters, the digest
// of the workload's program (prog.Program.Digest) and the schema version.
// The serialization is hand-written (not JSON) so the key is stable across
// processes, Go versions, and struct-tag refactors; any new Job field must
// be appended here, which changes the keys of jobs that set it — exactly
// the invalidation we want. The program digest ties the key to the code
// the job runs: a workload whose generated program changes gets new keys,
// so a result recorded for the old program is never served for the new.
//
//repro:deterministic
func (j Job) Key() string {
	d, _ := programDigest(j.Workload, j.Scale)
	return keyAt(j, d, SchemaVersion)
}

// keyAt derives the key over an explicit program digest and schema version
// (split out so Spec.Jobs can pass each workload's digest once, and so
// tests can prove a version bump invalidates every key).
//
//repro:deterministic
func keyAt(j Job, prog [sha256.Size]byte, version int) string {
	var buf [384]byte
	sum := sha256.Sum256(appendCanonical(buf[:0], j, prog, version))
	return hex.EncodeToString(sum[:])
}

// appendCanonical appends the job's canonical serialization, the string
// keyAt hashes, to b. Every submission derives each job's key, so it is
// built with strconv appends rather than fmt; the bytes are those of
//
//	fmt.Sprintf("regreuse-sweep-job|v%d|workload=%s|scheme=%s|scale=%d|size=%d|reuse_depth=%d|spec_reuse=%t|max_insts=%d|ff=%d|warm=%d|sample=%s|prog=%x", ...)
//
// over the same fields, which TestCanonicalMatchesSprintf pins.
//
//repro:deterministic
func appendCanonical(b []byte, j Job, prog [sha256.Size]byte, version int) []byte {
	b = append(b, "regreuse-sweep-job|v"...)
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(b, "|workload="...)
	b = append(b, j.Workload...)
	b = append(b, "|scheme="...)
	b = append(b, j.Scheme...)
	b = append(b, "|scale="...)
	b = strconv.AppendInt(b, int64(j.Scale), 10)
	b = append(b, "|size="...)
	b = strconv.AppendInt(b, int64(j.Size), 10)
	b = append(b, "|reuse_depth="...)
	b = strconv.AppendInt(b, int64(j.ReuseDepth), 10)
	b = append(b, "|spec_reuse="...)
	b = strconv.AppendBool(b, !j.DisableSpeculativeReuse)
	b = append(b, "|max_insts="...)
	b = strconv.AppendUint(b, j.MaxInsts, 10)
	b = append(b, "|ff="...)
	b = strconv.AppendUint(b, j.FastForward, 10)
	b = append(b, "|warm="...)
	b = strconv.AppendUint(b, j.Warmup, 10)
	b = append(b, "|sample="...)
	b = append(b, j.Sample...)
	b = append(b, "|prog="...)
	return hex.AppendEncode(b, prog[:])
}

// programDigests memoizes programDigest by workload name and scale. Finding
// the program through workloads.Workload.Program hashes its whole source
// text, up to 1.7 MB for a grid of every kernel at scale 4, on each
// submission; a workload's program never changes within a process.
var programDigests sync.Map // progKey -> [sha256.Size]byte

type progKey struct {
	name  string
	scale int
}

// programDigest returns the digest of the named workload's program at
// scale, and false when no such workload exists (no job of it can run, so
// its key carries a zero digest).
func programDigest(name string, scale int) ([sha256.Size]byte, bool) {
	k := progKey{name, scale}
	if d, ok := programDigests.Load(k); ok {
		return d.([sha256.Size]byte), true
	}
	if scale < 1 {
		return [sha256.Size]byte{}, false
	}
	w, ok := workloads.ByName(name, scale)
	if !ok {
		return [sha256.Size]byte{}, false
	}
	d := w.Program().Digest()
	programDigests.Store(k, d)
	return d, true
}
