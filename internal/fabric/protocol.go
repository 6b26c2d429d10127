// Package fabric is the sweep service: a coordinator expands SweepSpecs
// into the engine's deterministic job grids, journals and resumes them, and
// leases jobs to pull-model workers, while a shared content-addressed
// artifact store lets every worker reuse every other worker's simulation
// results and fast-forward checkpoints. The job lifecycle — admission,
// journaling, resume, retries, timeouts, panic containment and metrics —
// exists once, here, and serves both sweepd service modes:
//
//   - remote workers (sweepd -mode=coordinator / -mode=worker) speak the
//     HTTP protocol below and reach the store through blob.Handler under
//     /objects/;
//   - in-process workers (Coordinator.LocalWorker, sweepd -mode=local)
//     make the same lease, complete and heartbeat calls directly, mount the
//     coordinator's store directly, and wait on the queue instead of
//     polling. LocalHandler serves only the sweep API and /metrics.
//
// The protocol is three POST endpoints plus the object store:
//
//	POST /lease      worker asks for a job; 200 + LeaseResponse, or 204
//	POST /complete   worker reports a finished (or failed) lease
//	POST /heartbeat  worker renews every lease it holds
//
// A lease carries a TTL; a worker that stops heartbeating (crash, partition)
// lets its leases expire, and the coordinator re-leases the jobs to whoever
// pulls next — the work-stealing path. Results are journaled into an
// fsynced JSONL manifest per sweep, so a killed coordinator resumes on
// restart and the final results.json is byte-identical to a serial
// sweep.Run of the same spec.
package fabric

import (
	"repro/internal/sweep"
)

// LeaseRequest is a worker's pull for one job.
//
//repro:schema fabric-lease-request v1
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants one job to the requesting worker until the lease
// expires or is completed. TTLMillis tells the worker how often to
// heartbeat (a third of the TTL is the convention).
//
//repro:schema fabric-lease-response v1
type LeaseResponse struct {
	LeaseID string    `json:"lease_id"`
	SweepID string    `json:"sweep_id"`
	Index   int       `json:"index"` // job index in the sweep's expansion order
	Job     sweep.Job `json:"job"`
	// SampleWorkers is the spec's intra-job sampling parallelism — an
	// execution option, forwarded so sampled jobs fan their detail
	// intervals exactly as a local run would.
	SampleWorkers int   `json:"sample_workers,omitempty"`
	TTLMillis     int64 `json:"ttl_ms"`
}

// CompleteRequest reports the outcome of a lease. Source is "run" (simulated
// here) or "cache" (served from the shared store); Error non-empty marks a
// failed attempt, which the coordinator retries up to its bound. Ckpt and
// FFInsts carry the attempt's sweep.Usage into the coordinator's metrics.
//
//repro:schema fabric-complete-request v2
type CompleteRequest struct {
	LeaseID string          `json:"lease_id"`
	SweepID string          `json:"sweep_id"`
	Index   int             `json:"index"`
	Worker  string          `json:"worker"`
	Source  string          `json:"source"`
	Result  sweep.JobResult `json:"result"`
	Error   string          `json:"error,omitempty"`
	// ElapsedMillis is the worker-side wall clock of an executed attempt.
	ElapsedMillis int64 `json:"elapsed_ms,omitempty"`
	// Ckpt is "hit" or "miss" when the attempt fast-forwarded through the
	// checkpoint store; FFInsts counts the instructions it ran at
	// functional speed (0 when the store kept its boot state in memory).
	Ckpt    string `json:"ckpt,omitempty"`
	FFInsts uint64 `json:"ff_insts,omitempty"`
}

// CompleteResponse acknowledges a completion. Status is "ok" for a recorded
// outcome and "ignored" for a late completion whose job already finished
// elsewhere (both are success at the HTTP layer: the worker is done with the
// job either way).
//
//repro:schema fabric-complete-response v1
type CompleteResponse struct {
	Status string `json:"status"`
}

// HeartbeatRequest renews every lease the worker holds.
//
//repro:schema fabric-heartbeat-request v1
type HeartbeatRequest struct {
	Worker string `json:"worker"`
}

// HeartbeatResponse reports how many leases were renewed.
//
//repro:schema fabric-heartbeat-response v1
type HeartbeatResponse struct {
	Renewed int `json:"renewed"`
}
