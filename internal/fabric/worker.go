package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/blob"
	"repro/internal/ckpt"
	"repro/internal/sweep"
)

// WorkerOptions configures a pull-model worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL, e.g. "http://127.0.0.1:8080".
	Coordinator string
	// Dir is the worker's scratch directory; <Dir>/objects becomes a local
	// read-through cache in front of the coordinator's store. Empty means
	// every object access goes to the coordinator.
	Dir string
	// ID names this worker in leases and heartbeats ("" = hostname-pid).
	ID string
	// Poll is how long to sleep when the coordinator has no work (0 = 250ms).
	Poll time.Duration
	// JobTimeout bounds one attempt (0 = 10m).
	JobTimeout time.Duration
	// Client overrides the HTTP client (nil = 2 minute timeout).
	Client *http.Client
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// Worker pulls leases from a coordinator, executes them through
// sweep.Attempt under a timeout, and reports completions. A remote worker
// (NewWorker) speaks the HTTP protocol and mounts its result cache and
// checkpoint store over the coordinator's shared artifact store (with an
// optional local read-through layer); an in-process worker
// (Coordinator.LocalWorker) makes the same calls directly. Either way, any
// job another worker already simulated — in this sweep or any earlier one —
// completes as a cache hit without touching the simulator.
type Worker struct {
	opts WorkerOptions
	id   string
	// coord is the coordinator an in-process worker calls directly; nil
	// for a remote worker, which talks HTTP to base through client.
	coord  *Coordinator
	base   string
	client *http.Client
	cache  *sweep.Cache
	ckpts  *ckpt.Store
	// attempts counts running attempt goroutines, timed-out ones included,
	// so an embedder that outlives Run can wait until none still writes
	// the cache.
	attempts sync.WaitGroup
}

// withDefaults fills the options every worker kind shares.
func (opts WorkerOptions) withDefaults() WorkerOptions {
	if opts.ID == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		opts.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.JobTimeout <= 0 {
		opts.JobTimeout = 10 * time.Minute
	}
	return opts
}

// NewWorker validates opts and builds a remote worker's store stack.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Coordinator == "" {
		return nil, fmt.Errorf("fabric: worker needs a coordinator URL")
	}
	opts = opts.withDefaults()
	if opts.Poll <= 0 {
		opts.Poll = 250 * time.Millisecond
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	var store blob.Store = blob.NewRemote(opts.Coordinator, client)
	if opts.Dir != "" {
		local, err := blob.NewDir(filepath.Join(opts.Dir, "objects"))
		if err != nil {
			return nil, err
		}
		store = &blob.ReadThrough{Local: local, Back: store}
	}
	return &Worker{
		opts:   opts,
		id:     opts.ID,
		base:   strings.TrimRight(opts.Coordinator, "/"),
		client: client,
		cache:  sweep.NewCacheStore(store),
		ckpts:  ckpt.NewStoreWith(store),
	}, nil
}

// LocalWorker returns an in-process worker for c. It leases, heartbeats and
// completes through direct calls, mounts c's own result cache and
// checkpoint store, and when idle waits for c to queue work instead of
// polling. Of opts, only ID, JobTimeout and Logf apply.
func (c *Coordinator) LocalWorker(opts WorkerOptions) *Worker {
	opts = opts.withDefaults()
	return &Worker{
		opts:  opts,
		id:    opts.ID,
		coord: c,
		cache: c.cache,
		ckpts: ckpt.NewStoreWith(c.store),
	}
}

// ID returns the worker's lease identity.
func (w *Worker) ID() string { return w.id }

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Run pulls and executes jobs until ctx is cancelled. Shutdown is a drain:
// cancellation is only observed between leases, so an in-flight job finishes
// and reports its completion before Run returns. The return is always nil —
// an unreachable coordinator is a retry loop, not a worker death.
func (w *Worker) Run(ctx context.Context) error {
	if w.coord != nil {
		w.logf("worker %s serving the in-process coordinator", w.id)
	} else {
		w.logf("worker %s pulling from %s", w.id, w.base)
	}
	idle := false
	for ctx.Err() == nil {
		lr, wake, err := w.lease()
		if err != nil {
			w.logf("worker %s: lease: %v (retrying)", w.id, err)
			w.wait(ctx, nil)
			continue
		}
		if lr == nil {
			if !idle {
				w.logf("worker %s idle", w.id)
				idle = true
			}
			w.wait(ctx, wake)
			continue
		}
		idle = false
		w.process(lr)
	}
	w.logf("worker %s drained, exiting", w.id)
	return nil
}

// wait blocks until ctx is done or work may be available: until wake
// closes for an in-process worker, or one poll interval for a remote one
// (wake nil).
func (w *Worker) wait(ctx context.Context, wake <-chan struct{}) {
	var poll <-chan time.Time
	if wake == nil {
		t := time.NewTimer(w.opts.Poll)
		defer t.Stop()
		poll = t.C
	}
	select {
	case <-ctx.Done():
	case <-wake:
	case <-poll:
	}
}

// process executes one lease and reports it, heartbeating for the duration
// so a healthy-but-slow job is never stolen out from under us.
func (w *Worker) process(lr *LeaseResponse) {
	stop := make(chan struct{})
	done := make(chan struct{})
	go w.heartbeatLoop(time.Duration(lr.TTLMillis)*time.Millisecond, stop, done)

	start := time.Now()
	res, source, use, err := w.attempt(lr.Job, lr.SampleWorkers)
	elapsed := time.Since(start)
	close(stop)
	<-done

	req := CompleteRequest{
		LeaseID:       lr.LeaseID,
		SweepID:       lr.SweepID,
		Index:         lr.Index,
		Worker:        w.id,
		Source:        source,
		Result:        res,
		ElapsedMillis: elapsed.Milliseconds(),
		Ckpt:          use.Ckpt,
		FFInsts:       use.FFInsts,
	}
	if err != nil {
		req.Error = err.Error()
		w.logf("worker %s: job %s/%s@%d failed: %v", w.id, lr.Job.Workload, lr.Job.Scheme, lr.Job.Size, err)
	} else {
		w.logf("worker %s: job %s/%s@%d done (%s, %s)", w.id, lr.Job.Workload, lr.Job.Scheme, lr.Job.Size, source, elapsed.Round(time.Millisecond))
	}
	if err := w.complete(req); err != nil {
		// The coordinator will expire the lease and re-lease the job; the
		// result is already in the shared store, so the retry is a cache hit.
		w.logf("worker %s: complete: %v (lease will expire)", w.id, err)
	}
}

// attempt runs sweep.Attempt on its own goroutine, so an overlong job
// cannot hold the worker. A timed-out goroutine is abandoned (the
// simulator has no preemption points, and pipeline.DefaultMaxCycles
// bounds how long it can linger): the worker reports the timeout, and a
// result that comes later only reaches the cache.
func (w *Worker) attempt(job sweep.Job, sampleWorkers int) (sweep.JobResult, string, sweep.Usage, error) {
	type outcome struct {
		res    sweep.JobResult
		source string
		use    sweep.Usage
		err    error
	}
	ch := make(chan outcome, 1)
	w.attempts.Add(1)
	go func() {
		defer w.attempts.Done()
		var o outcome
		o.res, o.source, o.use, o.err = sweep.Attempt(job, job.Key(), w.cache, w.ckpts, sampleWorkers)
		ch <- o
	}()
	t := time.NewTimer(w.opts.JobTimeout)
	defer t.Stop()
	select {
	case o := <-ch:
		return o.res, o.source, o.use, o.err
	case <-t.C:
		return sweep.JobResult{}, "", sweep.Usage{}, fmt.Errorf("job timed out after %s", w.opts.JobTimeout)
	}
}

// heartbeatLoop renews this worker's leases at a third of the lease TTL
// until stop closes, then signals done.
func (w *Worker) heartbeatLoop(ttl time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	interval := ttl / 3
	if interval <= 0 {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if err := w.heartbeat(); err != nil {
				w.logf("worker %s: heartbeat: %v", w.id, err)
			}
		}
	}
}

// lease asks the coordinator for one job. lr is nil when the queue is
// empty; an in-process worker then also gets a channel that closes once
// work is queued.
func (w *Worker) lease() (lr *LeaseResponse, wake <-chan struct{}, err error) {
	if w.coord != nil {
		lr, wake = w.coord.lease(w.id)
		return lr, wake, nil
	}
	var resp LeaseResponse
	status, err := w.post("/lease", LeaseRequest{Worker: w.id}, &resp)
	if err != nil || status == http.StatusNoContent {
		return nil, nil, err
	}
	return &resp, nil, nil
}

// complete reports a finished (or failed) lease.
func (w *Worker) complete(req CompleteRequest) error {
	if w.coord != nil {
		_, err := w.coord.complete(req)
		return err
	}
	var resp CompleteResponse
	_, err := w.post("/complete", req, &resp)
	return err
}

// heartbeat renews every lease this worker holds.
func (w *Worker) heartbeat() error {
	if w.coord != nil {
		w.coord.heartbeat(w.id)
		return nil
	}
	var resp HeartbeatResponse
	_, err := w.post("/heartbeat", HeartbeatRequest{Worker: w.id}, &resp)
	return err
}

// post sends one JSON request to the coordinator and decodes the response
// into out (skipped on 204). Non-2xx statuses are errors.
func (w *Worker) post(path string, in, out any) (int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return resp.StatusCode, nil
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, fmt.Errorf("%s: status %s", path, resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: decode: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}
