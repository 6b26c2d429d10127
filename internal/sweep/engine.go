package sweep

import (
	"context"
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

// Run expands spec and executes it in process: every job is one Attempt
// under the worker pool, so cache hits skip simulation and a panicking job
// is recorded as failed instead of taking the run down. Retries and
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
	err = par.ForEachCtx(ctx, len(jobs), opts.Workers, func(i int) error {
		r, source, _, jerr := Attempt(jobs[i], keys[i], opts.Cache, opts.Ckpt, spec.SampleWorkers)
		res.Results[i], errs[i] = r, jerr
		mu.Lock()
		switch {
		case jerr != nil:
			res.Stats.Failed++
		case source == "cache":
			res.Stats.CacheHits++
		default:
			res.Stats.Executed++
		}
		mu.Unlock()
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

// Attempt produces job j's result on the calling goroutine. source is
// "cache" when key is in cache (a nil cache always misses); otherwise it is
// "run": Execute simulates j and the result is put under key. A panic
// becomes the attempt's error, and a failed attempt returns no result and
// caches nothing. Both schedulers (Run here, the internal/fabric worker)
// attempt jobs only through it, so their results are bit-identical, which
// the shared cache and the byte-identical results.json rest on.
//
//repro:deterministic
func Attempt(j Job, key string, cache *Cache, store *ckpt.Store, sampleWorkers int) (r JobResult, source string, use Usage, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, source, err = JobResult{}, "", fmt.Errorf("job panicked: %v", p)
		}
	}()
	if hit, ok := cache.Get(key); ok {
		return hit, "cache", Usage{}, nil
	}
	r, use, err = Execute(j, store, sampleWorkers)
	if err != nil {
		return JobResult{}, "", use, err
	}
	if perr := cache.Put(key, j, r); perr != nil {
		// A broken cache costs future reuse, never this result.
		fmt.Fprintf(os.Stderr, "sweep: cache put %s: %v\n", key[:12], perr)
	}
	return r, "run", use, nil
}
