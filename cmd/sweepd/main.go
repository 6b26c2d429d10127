// Command sweepd serves the design-space-exploration engine over HTTP. All
// three modes run one job lifecycle, internal/fabric's coordinator and
// workers:
//
//	-mode=local (default): a coordinator with -workers in-process workers
//	(0 = GOMAXPROCS). Accepts SweepSpecs, deduplicates work through the
//	content-addressed result cache, journals every sweep into a resumable
//	manifest, and serves only the sweep API and /metrics.
//
//	-mode=coordinator: the same coordinator with no workers of its own.
//	Jobs are leased to remote workers over HTTP (POST /lease, /complete,
//	/heartbeat) and artifacts are served from the shared object store
//	(GET/PUT /objects/{name}). Dead workers' leases expire and their jobs
//	are re-leased; results.json is byte-identical to a serial run.
//
//	-mode=worker: a pull-model executor. Leases jobs from -coordinator,
//	runs them through the same engine, and mounts its result cache and
//	checkpoint store over the coordinator's object store (with a local
//	read-through layer under -dir).
//
//	sweepd -addr :8080 -dir sweeps
//	sweepd -mode=coordinator -addr :8080 -dir fab
//	sweepd -mode=worker -coordinator http://127.0.0.1:8080 -dir w1
//
//	curl -X POST localhost:8080/sweeps -d '{
//	  "name": "fig10", "workloads": ["poly_horner"],
//	  "schemes": ["baseline", "reuse"], "scale": 1, "sizes": [56, 64, 96]
//	}'
//	curl localhost:8080/sweeps/<id>           # status: state + progress counts
//	curl localhost:8080/sweeps/<id>/results   # in-progress grid, then results.json
//	curl localhost:8080/metrics               # fabric_* counters
//
// Local and coordinator state share one layout: <dir>/objects holds the
// result cache and checkpoints, <dir>/sweeps/<id> each sweep's spec,
// manifest and results. Submitting an identical spec again completes with
// zero simulator executions (every job is a cache hit). The manifest is
// synced once per append: a submission's cache hits go in as one batch
// before the submission is answered, and each completed job as one line.
// Killing any mode mid-sweep is safe: SIGINT/SIGTERM drain in-flight jobs,
// and a restart resumes unfinished sweeps with bit-identical results.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/fabric"
)

func main() {
	var (
		mode        = flag.String("mode", "local", "local | coordinator | worker")
		addr        = flag.String("addr", ":8080", "listen address for local/coordinator (use 127.0.0.1:0 for a random port)")
		dir         = flag.String("dir", "sweeps", "state directory (object store + per-sweep manifests; worker scratch)")
		workers     = flag.Int("workers", 0, "local mode: in-process workers (0 = GOMAXPROCS)")
		timeout     = flag.Duration("job-timeout", 10*time.Minute, "per-job attempt timeout (local + worker)")
		retries     = flag.Int("retries", 1, "extra attempts for a failed or timed-out job (local + coordinator)")
		coordinator = flag.String("coordinator", "", "worker mode: coordinator base URL, e.g. http://127.0.0.1:8080")
		leaseTTL    = flag.Duration("lease-ttl", 30*time.Second, "coordinator mode: lease expiry without a heartbeat")
		poll        = flag.Duration("poll", 250*time.Millisecond, "worker mode: idle poll interval")
		workerID    = flag.String("id", "", "worker mode: worker identity (default hostname-pid)")
		drain       = flag.Duration("drain-timeout", time.Minute, "max wait for in-flight work on SIGINT/SIGTERM")
	)
	flag.Parse()

	// All modes drain on SIGINT/SIGTERM: in-flight jobs finish, manifests
	// are fsynced, and the process exits 0 so supervisors treat the stop as
	// clean. A restart resumes from the on-disk state.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch *mode {
	case "local":
		err = runLocal(ctx, *addr, *dir, *workers, *timeout, *retries, *drain)
	case "coordinator":
		err = runCoordinator(ctx, *addr, *dir, *retries, *leaseTTL, *drain)
	case "worker":
		err = runWorker(ctx, *coordinator, *dir, *workerID, *poll, *timeout)
	default:
		err = fmt.Errorf("unknown -mode %q (want local, coordinator, or worker)", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// listenAndAnnounce binds addr and prints the resolved address to stdout so
// scripts starting sweepd on a random port (make smoke, make fabricsmoke)
// can discover it.
func listenAndAnnounce(addr, mode string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("sweepd %s listening on http://%s\n", mode, ln.Addr())
	return ln, nil
}

// serveUntil runs the HTTP server until ctx cancels, then shuts the
// listener down within the drain budget. The caller drains its own engine
// afterwards.
func serveUntil(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	hs := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sdCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return hs.Shutdown(sdCtx)
}

func runLocal(ctx context.Context, addr, dir string, workers int, timeout time.Duration, retries int, drain time.Duration) error {
	c, err := fabric.NewCoordinator(dir, fabric.CoordinatorOptions{Retries: retries})
	if err != nil {
		return err
	}
	ln, err := listenAndAnnounce(addr, "local")
	if err != nil {
		return err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for i := 1; i <= workers; i++ {
		w := c.LocalWorker(fabric.WorkerOptions{ID: fmt.Sprintf("local-%d", i), JobTimeout: timeout})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
		}()
	}
	if err := serveUntil(ctx, ln, c.LocalHandler(), drain); err != nil {
		return err
	}
	// Worker.Run drains on cancellation: each in-flight job finishes and is
	// journaled before Run returns.
	log.Printf("sweepd: draining in-flight jobs")
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drain):
		return fmt.Errorf("drain: in-flight jobs still running after %s", drain)
	}
	if err := c.Close(); err != nil {
		return fmt.Errorf("close journals: %w", err)
	}
	log.Printf("sweepd: clean shutdown")
	return nil
}

func runCoordinator(ctx context.Context, addr, dir string, retries int, leaseTTL, drain time.Duration) error {
	c, err := fabric.NewCoordinator(dir, fabric.CoordinatorOptions{
		LeaseTTL: leaseTTL,
		Retries:  retries,
	})
	if err != nil {
		return err
	}
	ln, err := listenAndAnnounce(addr, "coordinator")
	if err != nil {
		return err
	}
	if err := serveUntil(ctx, ln, c.Handler(), drain); err != nil {
		return err
	}
	// Every journal append was synced when it was made (a submission's
	// cache hits as one batch, each completion as one line); Close just
	// releases the files. Any lease still in flight will be re-leased by
	// the next coordinator process after it recovers the manifests.
	if err := c.Close(); err != nil {
		return fmt.Errorf("close journals: %w", err)
	}
	log.Printf("sweepd: coordinator state synced, clean shutdown")
	return nil
}

func runWorker(ctx context.Context, coordinator, dir, id string, poll, timeout time.Duration) error {
	w, err := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator: coordinator,
		Dir:         dir,
		ID:          id,
		Poll:        poll,
		JobTimeout:  timeout,
		Logf:        log.Printf,
	})
	if err != nil {
		return err
	}
	// Worker.Run drains on cancellation: the in-flight job finishes and its
	// completion is reported before Run returns.
	return w.Run(ctx)
}
