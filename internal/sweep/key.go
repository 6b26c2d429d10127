package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
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
// explicit, field-by-field serialization of the job parameters plus the
// schema version. The serialization is hand-written (not JSON) so the key
// is stable across processes, Go versions, and struct-tag refactors; any
// new Job field must be appended here, which changes the keys of jobs that
// set it — exactly the invalidation we want.
//
//repro:deterministic
func (j Job) Key() string { return keyAt(j, SchemaVersion) }

// keyAt derives the key under an explicit schema version (split out so
// tests can prove a version bump invalidates every key).
//
//repro:deterministic
func keyAt(j Job, version int) string {
	var buf [256]byte
	sum := sha256.Sum256(appendCanonical(buf[:0], j, version))
	return hex.EncodeToString(sum[:])
}

// appendCanonical appends the job's canonical serialization, the string
// keyAt hashes, to b. Every submission derives each job's key, so it is
// built with strconv appends rather than fmt; the bytes are those of
//
//	fmt.Sprintf("regreuse-sweep-job|v%d|workload=%s|scheme=%s|scale=%d|size=%d|reuse_depth=%d|spec_reuse=%t|max_insts=%d|ff=%d|warm=%d|sample=%s", ...)
//
// over the same fields, which TestCanonicalMatchesSprintf pins.
//
//repro:deterministic
func appendCanonical(b []byte, j Job, version int) []byte {
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
	return append(b, j.Sample...)
}
