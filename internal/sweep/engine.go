package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/par"
)

// Options configures one in-process run.
type Options struct {
	// Workers bounds simulation parallelism (<= 0 = GOMAXPROCS).
	Workers int
	// Cache is the cross-sweep content-addressed result store; nil
	// disables caching.
	Cache *Cache
	// Ckpt is the shared checkpoint store for fast-forward jobs; nil makes
	// every job fast-forward from reset itself. With a store, each
	// (workload, position) is fast-forwarded once no matter how many
	// schemes and sizes share it: ckpt.Prepare lets one caller per site
	// fast-forward while the others wait and load what it saved.
	Ckpt *ckpt.Store
}

// RunStats counts how a run's jobs were satisfied.
type RunStats struct {
	Total     int `json:"total"`
	Executed  int `json:"executed"`   // simulated in this run
	CacheHits int `json:"cache_hits"` // satisfied by the content-addressed cache
	Failed    int `json:"failed"`
}

// RunResult is a completed sweep. Jobs and Results are parallel slices in
// the spec's deterministic expansion order. Stats is observability only —
// it is excluded from results.json so the artifact depends only on the
// results, never on how each one was obtained.
type RunResult struct {
	SchemaVersion int         `json:"schema_version"`
	Spec          Spec        `json:"spec"`
	Jobs          []Job       `json:"jobs"`
	Results       []JobResult `json:"results"`
	Errors        []string    `json:"-"`
	Stats         RunStats    `json:"-"`
}

// Run expands spec and executes it in process: cache hits skip simulation,
// and everything else is simulated under the worker pool, with a panicking
// job recorded as failed instead of taking the run down. Retries and
// timeouts are service concerns (internal/fabric): a deterministic job that
// failed once fails again. Run returns once every job has an outcome (or
// ctx is cancelled); if any job failed, the RunResult is still returned
// alongside the error so callers can see partial results.
func Run(ctx context.Context, spec Spec, opts Options) (*RunResult, error) {
	jobs, keys, err := spec.Jobs()
	if err != nil {
		return nil, err
	}
	res := &RunResult{
		SchemaVersion: SchemaVersion,
		Spec:          spec,
		Jobs:          jobs,
		Results:       make([]JobResult, len(jobs)),
	}
	res.Stats.Total = len(jobs)
	errs := make([]error, len(jobs))

	var mu sync.Mutex // guards res.Stats
	count := func(n *int) {
		mu.Lock()
		*n++
		mu.Unlock()
	}
	err = par.ForEachCtx(ctx, len(jobs), opts.Workers, func(i int) error {
		key := keys[i]
		if r, ok := opts.Cache.Get(key); ok {
			res.Results[i] = r
			count(&res.Stats.CacheHits)
			return nil
		}
		r, jerr := runJob(jobs[i], opts.Ckpt, spec.SampleWorkers)
		if jerr != nil {
			errs[i] = jerr
			count(&res.Stats.Failed)
			return nil
		}
		if perr := opts.Cache.Put(key, jobs[i], r); perr != nil {
			// A broken cache must not fail the sweep.
			fmt.Fprintf(os.Stderr, "sweep: cache put %s: %v\n", key[:12], perr)
		}
		res.Results[i] = r
		count(&res.Stats.Executed)
		return nil
	})
	if err != nil {
		return res, err
	}
	for i, jerr := range errs {
		if jerr != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("%s/%s@%d: %v", jobs[i].Workload, jobs[i].Scheme, jobs[i].Size, jerr))
		}
	}
	if len(res.Errors) > 0 {
		return res, fmt.Errorf("sweep: %d of %d jobs failed (first: %s)", len(res.Errors), len(jobs), res.Errors[0])
	}
	return res, nil
}

// runJob executes one job on the calling goroutine, turning a panic into
// the job's error.
func runJob(j Job, store *ckpt.Store, sampleWorkers int) (r JobResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job panicked: %v", p)
		}
	}()
	r, _, err = Execute(j, store, sampleWorkers)
	return r, err
}

// MarshalResults renders the results.json artifact. It depends only on the
// spec and the (deterministic) per-job results, never on scheduling order
// or on how each result was obtained — which is why a sweepd run's
// artifact, resumed or not, matches a serial Run's byte for byte.
func MarshalResults(res *RunResult) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "\t")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
