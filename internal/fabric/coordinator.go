package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/sweep"
)

// CoordinatorOptions configures a coordinator.
type CoordinatorOptions struct {
	// LeaseTTL is how long a leased job may go without a heartbeat before
	// it is re-leased to another worker (0 = 30s).
	LeaseTTL time.Duration
	// Retries is how many times a job is re-queued after a failed attempt
	// or an expired lease before it is recorded as failed (0 = never; the
	// bound also keeps a crashing worker from looping a job forever).
	Retries int
	// Clock is the time source (nil = time.Now); tests inject a fake to
	// drive lease expiry deterministically.
	Clock func() time.Time
}

// Coordinator owns a sweeps directory (<dir>/objects for the shared
// artifact store, <dir>/sweeps/<id> per submitted sweep) and serves:
//
//	POST /sweeps              submit a SweepSpec, returns {"id": ...}
//	GET  /sweeps              list sweep statuses
//	GET  /sweeps/{id}         one sweep's status
//	GET  /sweeps/{id}/results final artifact once done; partial view while running
//	GET  /metrics             flat sorted []obs.Metric
//	POST /lease | /complete | /heartbeat   worker protocol (Handler only)
//	GET/PUT /objects/{name}   shared artifact store (Handler only)
//
// All coordinator state that matters for correctness lives on disk: the
// artifact store, each sweep's spec.json, and its fsynced JSONL manifest.
// NewCoordinator replays those on startup, so a killed coordinator resumes
// exactly where it stopped (satisfied jobs become "resume" entries, the
// rest re-enter the queue).
type Coordinator struct {
	dir   string
	opts  CoordinatorOptions
	store *blob.Dir
	cache *sweep.Cache
	met   *Metrics
	now   func() time.Time

	mu       sync.Mutex
	seq      int
	sweeps   map[string]*sweepState
	order    []string
	pending  []jobRef
	leases   map[string]*lease
	leaseSeq uint64
	workers  map[string]time.Time // worker -> last contact
	// wake closes (and is replaced) whenever jobs are queued; idle
	// in-process workers wait on it instead of polling.
	wake chan struct{}
	// recorded indexes, by job key, the rows (result and encodings) of the
	// results this process recorded as "run", "cache" or "resume", so that
	// admission answers a resubmitted job without re-reading, decoding or
	// re-encoding its result. It holds at most recordedCap rows and is
	// emptied when full; the store stays the source of truth for every key
	// it does not hold.
	recorded map[string]*sweep.Row
}

// recordedCap bounds Coordinator.recorded. A row (the result and about
// 1 KB of its encodings) and its key take about 1.4 KB, so a full index
// costs under 6 MB and holds a grid of every kernel, scheme and Table III
// size (693 jobs) five times over.
const recordedCap = 4096

// sweepState is the in-memory face of one sweep; everything here is
// reconstructible from spec.json + manifest.jsonl. The per-job slices,
// jobs through holder, exist only while the sweep runs: once it has
// finished they are dropped, and the sweep is a status record served from
// its results.json.
type sweepState struct {
	id       string
	spec     sweep.Spec
	jobCount int
	jobs     []sweep.Job
	keys     []string
	rows     []*sweep.Row // nil until the job has a result
	done     []bool
	source   []string // "" until done; then "run" | "cache" | "resume" | "failed"
	errs     []string
	// attempts counts failed attempts and expired leases per job; a job
	// whose attempts exceed Retries is recorded as failed.
	attempts []int
	// holder is the worker currently (or most recently) leased each job —
	// the steal-accounting trail.
	holder    []string
	doneCount int
	failed    int
	state     string // "running" | "done" | "failed"
	errMsg    string
	journal   *manifest
	// status counters by source
	executed, cacheHits, resumed int
}

type jobRef struct {
	s     *sweepState
	index int
}

type lease struct {
	id      string
	ref     jobRef
	worker  string
	granted time.Time
	expiry  time.Time
}

// SweepStatus is the machine-readable state of one sweep: its progress by
// source plus queue visibility (jobs leased and pending).
type SweepStatus struct {
	ID    string `json:"id"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"` // "running" | "done" | "failed"
	Error string `json:"error,omitempty"`

	Jobs      int `json:"jobs"`
	Done      int `json:"done"`
	Executed  int `json:"executed"`
	CacheHits int `json:"cache_hits"`
	Resumed   int `json:"resumed"`
	Failed    int `json:"failed"`
	Leased    int `json:"leased"`
	Pending   int `json:"pending"`
}

// NewCoordinator opens (creating if needed) a coordinator rooted at dir and
// recovers every sweep found under <dir>/sweeps.
func NewCoordinator(dir string, opts CoordinatorOptions) (*Coordinator, error) {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	store, err := blob.NewDir(filepath.Join(dir, "objects"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "sweeps"), 0o755); err != nil {
		return nil, err
	}
	c := &Coordinator{
		dir:      dir,
		opts:     opts,
		store:    store,
		cache:    sweep.NewCacheStore(store),
		met:      NewMetrics(),
		now:      opts.Clock,
		sweeps:   map[string]*sweepState{},
		leases:   map[string]*lease{},
		workers:  map[string]time.Time{},
		wake:     make(chan struct{}),
		recorded: map[string]*sweep.Row{},
	}
	if c.now == nil {
		c.now = time.Now
	}
	if err := c.recover(); err != nil {
		return nil, err
	}
	return c, nil
}

// Metrics exposes the coordinator's metrics (for embedding callers).
func (c *Coordinator) Metrics() *Metrics { return c.met }

// Store exposes the shared artifact store the coordinator serves.
func (c *Coordinator) Store() blob.Store { return c.store }

// Close closes every open manifest journal in sweep-id order and returns
// every failure, each naming its sweep. In-flight workers will fail their
// completes and the next coordinator process resumes from the synced
// manifests.
//
//repro:deterministic
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []string
	for id, s := range c.sweeps {
		if s.journal != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	var errs []error
	for _, id := range ids {
		s := c.sweeps[id]
		if err := s.journal.close(); err != nil {
			errs = append(errs, fmt.Errorf("sweep %s: %w", id, err))
		}
		s.journal = nil
	}
	return errors.Join(errs...)
}

func (c *Coordinator) runDir(id string) string {
	return filepath.Join(c.dir, "sweeps", id)
}

// recover replays <dir>/sweeps: finished sweeps are listed as done, and
// every unfinished one re-enters the queue with its manifest-satisfied jobs
// marked "resume" — the restart path of the kill-mid-sweep contract. A
// sweep whose spec.json is unreadable or no longer validates is listed as
// failed with the reason, so one bad run directory cannot keep the
// coordinator from starting.
func (c *Coordinator) recover() error {
	specs, err := filepath.Glob(filepath.Join(c.dir, "sweeps", "*", specFile))
	if err != nil {
		return err
	}
	sort.Strings(specs)
	for _, specPath := range specs {
		runDir := filepath.Dir(specPath)
		id := filepath.Base(runDir)
		if err := c.recoverOne(id, specPath); err != nil {
			c.mu.Lock()
			c.registerLocked(&sweepState{id: id, state: "failed", errMsg: fmt.Sprintf("recover: %v", err)})
			c.mu.Unlock()
			c.met.locked(func(m *Metrics) { m.sweepsFailed.Inc() })
			continue
		}
		c.met.locked(func(m *Metrics) { m.sweepsRecovered.Inc() })
	}
	return nil
}

// recoverOne re-admits the sweep whose spec lives at specPath.
func (c *Coordinator) recoverOne(id, specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec sweep.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("bad spec: %w", err)
	}
	jobs, keys, err := spec.Jobs()
	if err != nil {
		return err
	}
	finished := resultsComplete(filepath.Join(filepath.Dir(specPath), resultsFile), len(jobs))
	return c.admit(id, spec, jobs, keys, finished)
}

// resultsComplete reports whether path holds a results.json with one result
// per job. The file's existence proves nothing: blob.WriteFileAtomic renames
// without syncing, so a crash can leave the name over empty or partial
// contents. A sweep whose results fail this check is recovered as
// unfinished, so its manifest and the cache refill it and the file is
// written again.
func resultsComplete(path string, jobs int) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	var res sweep.RunResult
	return json.Unmarshal(data, &res) == nil && len(res.Jobs) == jobs && len(res.Results) == jobs
}

// admit registers a sweep under id over its expanded grid (jobs and their
// keys, from spec.Jobs): it replays the manifest (entries become "resume"),
// satisfies what it can from the rows it recorded before or else from the
// shared store ("cache"), journals those hits as one synced batch spliced
// from their rows, queues the rest, and finalizes immediately when nothing
// is left. A finished sweep (recovery of one whose results.json is whole)
// becomes its status record at once. Callers hold no locks; admit takes
// c.mu itself.
//
//repro:deterministic
func (c *Coordinator) admit(id string, spec sweep.Spec, jobs []sweep.Job, keys []string, finished bool) error {
	runDir := c.runDir(id)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	// recover finds sweeps only through spec.json, so a sweep whose spec
	// was not written must not be accepted.
	data, err := json.MarshalIndent(spec, "", "\t")
	if err != nil {
		return err
	}
	if err := blob.WriteFileAtomic(filepath.Join(runDir, specFile), append(data, '\n')); err != nil {
		return err
	}
	s := &sweepState{id: id, spec: spec, jobCount: len(jobs), state: "running"}
	resumed, whole := loadManifest(filepath.Join(runDir, manifestFile))
	if finished {
		// Nothing left to schedule; report the terminal state the artifact
		// proves. Manifest entries count as resumed for status visibility.
		s.state = "done"
		for _, k := range keys {
			if _, ok := resumed[k]; ok {
				s.resumed++
			}
		}
		s.doneCount = s.resumed
		c.mu.Lock()
		c.registerLocked(s)
		c.mu.Unlock()
		return nil
	}
	s.jobs, s.keys = jobs, keys
	s.rows = make([]*sweep.Row, len(jobs))
	s.done = make([]bool, len(jobs))
	s.source = make([]string, len(jobs))
	s.errs = make([]string, len(jobs))
	s.attempts = make([]int, len(jobs))
	s.holder = make([]string, len(jobs))
	journal, err := openManifest(filepath.Join(runDir, manifestFile), whole)
	if err != nil {
		return err
	}
	s.journal = journal

	c.mu.Lock()
	defer c.mu.Unlock()
	c.registerLocked(s)
	c.met.locked(func(m *Metrics) { m.jobsTotal.Add(uint64(len(jobs))) })
	var queue []jobRef
	var hits []byte
	for i, key := range keys {
		if e, ok := resumed[key]; ok {
			if row, err := sweep.EncodeRow(jobs[i], e.Result); err == nil {
				c.recordLocked(s, i, "resume", row, "")
				continue
			}
		}
		row, ok := c.recorded[key]
		if !ok {
			row, ok = c.storedRow(jobs[i], key)
		}
		if ok {
			c.recordLocked(s, i, "cache", row, "")
			if hits == nil {
				// Room for a line of this size per job left to admit.
				hits = make([]byte, 0, (len(keys)-i)*(len(key)+len(row.Line)+32))
			}
			hits = appendLine(hits, key, "cache", row)
			continue
		}
		queue = append(queue, jobRef{s: s, index: i})
	}
	// The hits are durable before results.json is written and before the
	// submission is answered.
	c.journalLocked(s, hits)
	c.queueLocked(queue...)
	c.maybeFinishLocked(s)
	c.publishLevelsLocked()
	return nil
}

// storedRow reads key's result from the shared store and encodes job j's
// row for it. A result that cannot be encoded is a miss, like an
// unreadable one: the job runs again.
func (c *Coordinator) storedRow(j sweep.Job, key string) (*sweep.Row, bool) {
	r, ok := c.cache.Get(key)
	if !ok {
		return nil, false
	}
	row, err := sweep.EncodeRow(j, r)
	return row, err == nil
}

// queueLocked appends refs to the pending queue and wakes the idle
// in-process workers. c.mu must be held.
func (c *Coordinator) queueLocked(refs ...jobRef) {
	if len(refs) == 0 {
		return
	}
	c.pending = append(c.pending, refs...)
	close(c.wake)
	c.wake = make(chan struct{})
}

// registerLocked adds s to the sweep table (c.mu held).
func (c *Coordinator) registerLocked(s *sweepState) {
	c.sweeps[s.id] = s
	c.order = append(c.order, s.id)
}

// newID derives a sweep ID: a content prefix of the spec plus a sequence
// number that skips both live sweeps and run directories left by earlier
// coordinator processes.
func (c *Coordinator) newID(spec sweep.Spec) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", spec)))
	base := hex.EncodeToString(sum[:])[:12]
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		c.seq++
		id := fmt.Sprintf("%s-%d", base, c.seq)
		if _, taken := c.sweeps[id]; taken {
			continue
		}
		if _, err := os.Stat(c.runDir(id)); err == nil {
			continue
		}
		return id
	}
}

// recordLocked marks job i of s done with the given source ("run" | "cache"
// | "resume" | "failed" — errMsg set only for the last, row nil only for
// it), updates counters and indexes every outcome but "failed" in
// c.recorded; the caller journals "run" and "cache" outcomes. c.mu must be
// held.
func (c *Coordinator) recordLocked(s *sweepState, i int, source string, row *sweep.Row, errMsg string) {
	c.recordTimedLocked(s, i, source, row, errMsg, 0)
}

// recordTimedLocked is recordLocked carrying the worker-reported wall clock
// of an executed attempt (feeds the fabric_job_ms histogram; 0 elsewhere).
//
//repro:deterministic
func (c *Coordinator) recordTimedLocked(s *sweepState, i int, source string, row *sweep.Row, errMsg string, elapsed time.Duration) {
	if s.done[i] {
		return
	}
	s.done[i] = true
	s.source[i] = source
	s.doneCount++
	switch source {
	case "run":
		s.executed++
	case "cache":
		s.cacheHits++
	case "resume":
		s.resumed++
	case "failed":
		s.failed++
		s.errs[i] = errMsg
	}
	if source != "failed" {
		s.rows[i] = row
		if len(c.recorded) >= recordedCap {
			clear(c.recorded)
		}
		c.recorded[s.keys[i]] = row
	}
	c.met.jobDone(source, elapsed)
}

// journalLocked appends lines (appendLine's) to s's journal as one synced
// write. A failed append is reported, not fatal: the outcomes stay in
// memory, and a restart finds what the journal lost in the cache. c.mu
// must be held.
func (c *Coordinator) journalLocked(s *sweepState, lines []byte) {
	if s.journal == nil {
		return
	}
	if err := s.journal.add(lines); err != nil {
		fmt.Fprintf(os.Stderr, "fabric: manifest append %s: %v\n", s.id, err)
	}
}

// maybeFinishLocked finalizes s once every job has an outcome: on full
// success the results.json artifact is written atomically (byte-identical
// to a serial run — it is the engine's own assembly of the same rows in
// the same deterministic job order), on any failure the sweep is marked
// failed with the engine's error shape. Either way s then drops its
// per-job state and stays only as a status record. c.mu must be held.
//
//repro:deterministic
func (c *Coordinator) maybeFinishLocked(s *sweepState) {
	if s.state != "running" || s.doneCount < s.jobCount {
		return
	}
	if s.journal != nil {
		_ = s.journal.close()
		s.journal = nil
	}
	s.state, s.errMsg = c.finish(s)
	if s.state == "done" {
		c.met.locked(func(m *Metrics) { m.sweepsCompleted.Inc() })
	} else {
		c.met.locked(func(m *Metrics) { m.sweepsFailed.Inc() })
	}
	s.jobs, s.keys, s.rows, s.done, s.source, s.errs, s.attempts, s.holder = nil, nil, nil, nil, nil, nil, nil, nil
}

// finish writes the results.json of a sweep whose every job succeeded and
// returns "done", or returns "failed" with the reason: the first failed
// job, or the failed write.
//
//repro:deterministic
func (c *Coordinator) finish(s *sweepState) (state, errMsg string) {
	if s.failed > 0 {
		var first string
		for i, msg := range s.errs {
			if s.source[i] == "failed" {
				j := s.jobs[i]
				first = fmt.Sprintf("%s/%s@%d: %s", j.Workload, j.Scheme, j.Size, msg)
				break
			}
		}
		return "failed", fmt.Sprintf("sweep: %d of %d jobs failed (first: %s)", s.failed, s.jobCount, first)
	}
	data, err := sweep.AssembleResults(sweep.SchemaVersion, s.spec, s.rows)
	if err == nil {
		err = blob.WriteFileAtomic(filepath.Join(c.runDir(s.id), resultsFile), data)
	}
	if err != nil {
		return "failed", fmt.Sprintf("write results: %v", err)
	}
	return "done", ""
}

// expireLocked re-queues every lease whose worker stopped heartbeating.
// Each expiry spends one of the job's attempts, so a job that kills its
// workers (or a worker that never completes) cannot circulate forever.
// c.mu must be held.
//
// The scan collects from the lease map and sorts before re-queueing, so the
// re-lease order never inherits map iteration order — the directive below
// holds the function to that.
//
//repro:deterministic
func (c *Coordinator) expireLocked(now time.Time) {
	var expired []*lease
	for _, l := range c.leases {
		if now.After(l.expiry) {
			expired = append(expired, l)
		}
	}
	// Deterministic re-queue order (map iteration order is not).
	sort.Slice(expired, func(i, j int) bool { return expired[i].id < expired[j].id })
	for _, l := range expired {
		delete(c.leases, l.id)
		s, i := l.ref.s, l.ref.index
		c.met.locked(func(m *Metrics) { m.leaseExpiries.Inc() })
		if s.state != "running" || s.done[i] {
			continue
		}
		s.attempts[i]++
		if s.attempts[i] > c.opts.Retries {
			c.recordLocked(s, i, "failed", nil,
				fmt.Sprintf("lease expired %d times (last worker %s)", s.attempts[i], l.worker))
			c.maybeFinishLocked(s)
			continue
		}
		c.queueLocked(l.ref)
		c.met.locked(func(m *Metrics) { m.releases.Inc(); m.jobsRetried.Inc() })
	}
}

// publishLevelsLocked refreshes the queue/lease/worker gauges; c.mu held.
func (c *Coordinator) publishLevelsLocked() {
	alive := 0
	cutoff := c.now().Add(-3 * c.opts.LeaseTTL)
	for w, seen := range c.workers {
		if seen.After(cutoff) {
			alive++
		} else if seen.Before(cutoff.Add(-7 * c.opts.LeaseTTL)) {
			delete(c.workers, w) // long-gone: stop tracking
		}
	}
	c.met.levels(len(c.pending), len(c.leases), alive)
}

// Handler returns the coordinator's full HTTP mux: the sweep API plus the
// worker protocol and the object store that remote workers need.
func (c *Coordinator) Handler() http.Handler {
	mux := c.sweepMux()
	mux.HandleFunc("POST /lease", c.handleLease)
	mux.HandleFunc("POST /complete", c.handleComplete)
	mux.HandleFunc("POST /heartbeat", c.handleHeartbeat)
	mux.Handle("/objects/", &blob.Handler{
		Store: c.store,
		OnGet: c.met.storeGet,
		OnPut: c.met.storePut,
	})
	return mux
}

// LocalHandler serves only the sweep API and /metrics: the surface of a
// coordinator whose workers all run in process (LocalWorker). The worker
// protocol and the object store stay unexposed; a PUT /objects/<key>.json
// would let any client forge a cache hit.
func (c *Coordinator) LocalHandler() http.Handler { return c.sweepMux() }

func (c *Coordinator) sweepMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", c.handleSubmit)
	mux.HandleFunc("GET /sweeps", c.handleList)
	mux.HandleFunc("GET /sweeps/{id}", c.handleStatus)
	mux.HandleFunc("GET /sweeps/{id}/results", c.handleResults)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"metrics": c.met.Metrics()})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad spec: %v", err)
		return
	}
	jobs, keys, err := spec.Jobs()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := c.newID(spec)
	c.met.locked(func(m *Metrics) { m.sweepsSubmitted.Inc() })
	if err := c.admit(id, spec, jobs, keys, false); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"id":      id,
		"jobs":    len(jobs),
		"status":  "/sweeps/" + id,
		"results": "/sweeps/" + id + "/results",
	})
}

// statusLocked snapshots s's status; c.mu must be held.
func (c *Coordinator) statusLocked(s *sweepState) SweepStatus {
	st := SweepStatus{
		ID: s.id, Name: s.spec.Name, State: s.state, Error: s.errMsg,
		Jobs: s.jobCount, Done: s.doneCount,
		Executed: s.executed, CacheHits: s.cacheHits, Resumed: s.resumed,
		Failed: s.failed,
	}
	for _, l := range c.leases {
		if l.ref.s == s {
			st.Leased++
		}
	}
	for _, ref := range c.pending {
		if ref.s == s {
			st.Pending++
		}
	}
	return st
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.expireLocked(c.now())
	list := make([]SweepStatus, 0, len(c.order))
	for _, id := range c.order {
		list = append(list, c.statusLocked(c.sweeps[id]))
	}
	c.publishLevelsLocked()
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"sweeps": list})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	c.expireLocked(c.now())
	s, ok := c.sweeps[id]
	var st SweepStatus
	if ok {
		st = c.statusLocked(s)
	}
	c.publishLevelsLocked()
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResults serves the finished artifact byte-for-byte; while the grid
// is still filling in it serves a partial view — the same RunResult shape
// wrapped with progress so a dashboard can watch results stream in.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	s, ok := c.sweeps[id]
	var state string
	var partial *sweep.RunResult
	var done, total int
	if ok {
		state = s.state
		if state == "running" {
			results := make([]sweep.JobResult, s.jobCount)
			for i, row := range s.rows {
				if row != nil {
					results[i] = row.Result
				}
			}
			partial = &sweep.RunResult{
				SchemaVersion: sweep.SchemaVersion,
				Spec:          s.spec,
				Jobs:          s.jobs,
				Results:       results,
			}
			done, total = s.doneCount, s.jobCount
		}
	}
	c.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep %q", id)
		return
	}
	switch state {
	case "done":
		data, err := os.ReadFile(filepath.Join(c.runDir(id), resultsFile))
		if err != nil {
			writeError(w, http.StatusInternalServerError, "read results: %v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	case "failed":
		c.mu.Lock()
		msg := s.errMsg
		c.mu.Unlock()
		writeError(w, http.StatusConflict, "sweep %q failed: %s", id, msg)
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"state":     "running",
			"completed": done,
			"total":     total,
			"result":    partial,
		})
	}
}

// lease grants worker the next pending job. With the queue empty it
// returns nil and a channel that closes once new work is queued, so an
// in-process worker can wait for work without polling.
func (c *Coordinator) lease(worker string) (*LeaseResponse, <-chan struct{}) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	c.expireLocked(now)
	var resp *LeaseResponse
	for len(c.pending) > 0 {
		ref := c.pending[0]
		c.pending = c.pending[1:]
		s, i := ref.s, ref.index
		if s.state != "running" || s.done[i] {
			continue
		}
		c.leaseSeq++
		l := &lease{
			id:      fmt.Sprintf("%s/%d#%d", s.id, i, c.leaseSeq),
			ref:     ref,
			worker:  worker,
			granted: now,
			expiry:  now.Add(c.opts.LeaseTTL),
		}
		c.leases[l.id] = l
		if prev := s.holder[i]; prev != "" && prev != worker {
			c.met.locked(func(m *Metrics) { m.steals.Inc() })
		}
		s.holder[i] = worker
		c.met.locked(func(m *Metrics) { m.leasesGranted.Inc() })
		resp = &LeaseResponse{
			LeaseID:       l.id,
			SweepID:       s.id,
			Index:         i,
			Job:           s.jobs[i],
			SampleWorkers: s.spec.SampleWorkers,
			TTLMillis:     c.opts.LeaseTTL.Milliseconds(),
		}
		break
	}
	c.publishLevelsLocked()
	if resp == nil {
		return nil, c.wake
	}
	return resp, nil
}

// complete records the outcome of a lease. Its error names an unknown
// sweep or job. A completion for a finished sweep, or for a job that
// already has an outcome, is late and answered "ignored".
func (c *Coordinator) complete(req CompleteRequest) (CompleteResponse, error) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if req.Worker != "" {
		c.workers[req.Worker] = now
	}
	s, ok := c.sweeps[req.SweepID]
	if !ok {
		return CompleteResponse{}, fmt.Errorf("unknown sweep %q", req.SweepID)
	}
	if req.Index < 0 || req.Index >= s.jobCount {
		return CompleteResponse{}, fmt.Errorf("unknown job %s[%d]", req.SweepID, req.Index)
	}
	i := req.Index
	c.met.ckptUsage(req.Ckpt, req.FFInsts)
	// Whatever happens below, this lease is finished.
	if l, held := c.leases[req.LeaseID]; held && l.ref.s == s && l.ref.index == i {
		delete(c.leases, req.LeaseID)
		c.met.locked(func(m *Metrics) { m.leaseMS.Observe(uint64(now.Sub(l.granted).Milliseconds())) })
	}
	late := s.state != "running" || s.done[i]
	errMsg := req.Error
	var row *sweep.Row
	if !late && errMsg == "" {
		var err error
		if row, err = sweep.EncodeRow(s.jobs[i], req.Result); err != nil {
			errMsg = fmt.Sprintf("encode result: %v", err)
		}
	}
	status := "ok"
	switch {
	case late:
		// A slow worker finished a job that already completed elsewhere
		// (after its lease expired), perhaps of a sweep that has finished
		// since. Determinism makes the duplicate result identical, so
		// dropping it is harmless.
		c.met.locked(func(m *Metrics) { m.lateCompletes.Inc() })
		status = "ignored"
	case errMsg != "":
		s.attempts[i]++
		if s.attempts[i] > c.opts.Retries {
			c.recordLocked(s, i, "failed", nil, errMsg)
			c.maybeFinishLocked(s)
		} else {
			c.queueLocked(jobRef{s: s, index: i})
			c.met.locked(func(m *Metrics) { m.jobsRetried.Inc() })
		}
	default:
		source := req.Source
		if source != "cache" {
			source = "run"
		}
		c.journalLocked(s, appendLine(nil, s.keys[i], source, row))
		c.recordTimedLocked(s, i, source, row, "", time.Duration(req.ElapsedMillis)*time.Millisecond)
		if source == "run" && s.jobs[i].Sample != "" {
			c.met.locked(func(m *Metrics) { m.jobsSampled.Inc() })
		}
		// Any other lease for the same job (re-leased before this complete
		// arrived) is now moot.
		for lid, l := range c.leases {
			if l.ref.s == s && l.ref.index == i {
				delete(c.leases, lid)
			}
		}
		c.maybeFinishLocked(s)
	}
	c.expireLocked(now)
	c.publishLevelsLocked()
	return CompleteResponse{Status: status}, nil
}

// heartbeat renews every lease worker holds and reports how many.
func (c *Coordinator) heartbeat(worker string) int {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	renewed := 0
	for _, l := range c.leases {
		if l.worker == worker {
			l.expiry = now.Add(c.opts.LeaseTTL)
			renewed++
		}
	}
	c.met.locked(func(m *Metrics) { m.heartbeats.Inc() })
	c.expireLocked(now)
	c.publishLevelsLocked()
	return renewed
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
		writeError(w, http.StatusBadRequest, "bad lease request")
		return
	}
	resp, _ := c.lease(req.Worker)
	if resp == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad complete request: %v", err)
		return
	}
	resp, err := c.complete(req)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
		writeError(w, http.StatusBadRequest, "bad heartbeat")
		return
	}
	writeJSON(w, http.StatusOK, HeartbeatResponse{Renewed: c.heartbeat(req.Worker)})
}
