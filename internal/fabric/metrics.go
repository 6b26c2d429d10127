package fabric

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Metrics aggregates coordinator activity into an obs.Registry, the same
// counter/gauge/histogram machinery every /metrics surface in the repo
// serves (sweepd local and coordinator modes). The coordinator is
// concurrent, so every update and snapshot goes through one mutex. A nil
// *Metrics is valid and records nothing.
type Metrics struct {
	mu sync.Mutex
	r  *obs.Registry

	sweepsSubmitted *obs.Counter
	sweepsCompleted *obs.Counter
	sweepsFailed    *obs.Counter
	sweepsRecovered *obs.Counter

	jobsTotal    *obs.Counter
	jobsExecuted *obs.Counter
	jobsCacheHit *obs.Counter
	jobsResumed  *obs.Counter
	jobsFailed   *obs.Counter
	jobsRetried  *obs.Counter
	jobsSampled  *obs.Counter

	ckptHits    *obs.Counter
	ckptMisses  *obs.Counter
	ckptFFInsts *obs.Counter

	leasesGranted *obs.Counter
	leaseExpiries *obs.Counter
	releases      *obs.Counter
	steals        *obs.Counter
	heartbeats    *obs.Counter
	lateCompletes *obs.Counter

	storeGetHits   *obs.Counter
	storeGetMisses *obs.Counter
	storePuts      *obs.Counter
	storePutBytes  *obs.Counter

	leasesInflight *obs.Gauge
	jobsPending    *obs.Gauge
	workersAlive   *obs.Gauge

	jobMS   *obs.Hist
	leaseMS *obs.Hist
}

// NewMetrics creates a Metrics over a fresh registry. Registration order is
// fixed, so the snapshot layout is stable across runs.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		r:               r,
		sweepsSubmitted: r.Counter("fabric_sweeps_submitted"),
		sweepsCompleted: r.Counter("fabric_sweeps_completed"),
		sweepsFailed:    r.Counter("fabric_sweeps_failed"),
		sweepsRecovered: r.Counter("fabric_sweeps_recovered"),
		jobsTotal:       r.Counter("fabric_jobs_total"),
		jobsExecuted:    r.Counter("fabric_jobs_executed"),
		jobsCacheHit:    r.Counter("fabric_jobs_cache_hits"),
		jobsResumed:     r.Counter("fabric_jobs_resumed"),
		jobsFailed:      r.Counter("fabric_jobs_failed"),
		jobsRetried:     r.Counter("fabric_jobs_retried"),
		jobsSampled:     r.Counter("fabric_jobs_sampled"),
		ckptHits:        r.Counter("fabric_ckpt_hits"),
		ckptMisses:      r.Counter("fabric_ckpt_misses"),
		ckptFFInsts:     r.Counter("fabric_ckpt_ff_insts"),
		leasesGranted:   r.Counter("fabric_leases_granted"),
		leaseExpiries:   r.Counter("fabric_lease_expiries"),
		releases:        r.Counter("fabric_releases"),
		steals:          r.Counter("fabric_steals"),
		heartbeats:      r.Counter("fabric_heartbeats"),
		lateCompletes:   r.Counter("fabric_late_completes"),
		storeGetHits:    r.Counter("fabric_store_get_hits"),
		storeGetMisses:  r.Counter("fabric_store_get_misses"),
		storePuts:       r.Counter("fabric_store_puts"),
		storePutBytes:   r.Counter("fabric_store_put_bytes"),
		leasesInflight:  r.Gauge("fabric_leases_inflight"),
		jobsPending:     r.Gauge("fabric_jobs_pending"),
		workersAlive:    r.Gauge("fabric_workers_alive"),
		jobMS:           r.Hist("fabric_job_ms"),
		leaseMS:         r.Hist("fabric_lease_ms"),
	}
}

// Metrics returns the registry as the flat, name-sorted []obs.Metric list —
// the serialization every /metrics endpoint shares.
func (m *Metrics) Metrics() []obs.Metric {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.r.Metrics()
}

// locked runs f under the metrics mutex; a nil receiver records nothing.
func (m *Metrics) locked(f func(*Metrics)) {
	if m == nil {
		return
	}
	m.mu.Lock()
	f(m)
	m.mu.Unlock()
}

func (m *Metrics) storeGet(hit bool) {
	m.locked(func(m *Metrics) {
		if hit {
			m.storeGetHits.Inc()
		} else {
			m.storeGetMisses.Inc()
		}
	})
}

func (m *Metrics) storePut(bytes int) {
	m.locked(func(m *Metrics) {
		m.storePuts.Inc()
		m.storePutBytes.Add(uint64(bytes))
	})
}

// jobDone records one job outcome by source: "run" | "cache" | "resume" |
// "failed".
func (m *Metrics) jobDone(source string, elapsed time.Duration) {
	m.locked(func(m *Metrics) {
		switch source {
		case "run":
			m.jobsExecuted.Inc()
			m.jobMS.Observe(uint64(elapsed.Milliseconds()))
		case "cache":
			m.jobsCacheHit.Inc()
		case "resume":
			m.jobsResumed.Inc()
		case "failed":
			m.jobsFailed.Inc()
		}
	})
}

// ckptUsage records how a worker's attempt used the checkpoint store.
func (m *Metrics) ckptUsage(ckpt string, ffInsts uint64) {
	m.locked(func(m *Metrics) {
		switch ckpt {
		case "hit":
			m.ckptHits.Inc()
		case "miss":
			m.ckptMisses.Inc()
		}
		m.ckptFFInsts.Add(ffInsts)
	})
}

// levels publishes the coordinator's instantaneous queue/lease/worker
// levels after a state change.
func (m *Metrics) levels(pending, leases, workers int) {
	m.locked(func(m *Metrics) {
		m.jobsPending.Set(int64(pending))
		m.leasesInflight.Set(int64(leases))
		m.workersAlive.Set(int64(workers))
	})
}
