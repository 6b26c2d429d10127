package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/sweep"
)

// newLocal builds a coordinator that serves only LocalHandler, the
// surface of sweepd -mode=local.
func newLocal(t *testing.T, dir string, opts CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.LocalHandler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { c.Close() })
	return c, ts
}

// startLocalWorker runs an in-process worker of c until the test ends.
func startLocalWorker(t *testing.T, c *Coordinator, opts WorkerOptions) {
	t.Helper()
	opts.Logf = t.Logf
	runLocalWorker(t, c.LocalWorker(opts))
}

// runLocalWorker runs w until the test ends. The cleanup drains w and then
// waits for its timed-out attempts, which still write the store, so none
// outlives the test's temporary directory.
func runLocalWorker(t *testing.T, w *Worker) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done; w.attempts.Wait() })
}

// TestLocalWorkersWakeOnSubmit: idle in-process workers wait on the queue,
// not on a poll timer — with an hour-long poll they still pick up a grid
// submitted after they went idle at once.
func TestLocalWorkersWakeOnSubmit(t *testing.T) {
	c, ts := newLocal(t, t.TempDir(), CoordinatorOptions{})
	startLocalWorker(t, c, WorkerOptions{ID: "l1", Poll: time.Hour})
	startLocalWorker(t, c, WorkerOptions{ID: "l2", Poll: time.Hour})
	for idle := false; !idle; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		idle = len(c.workers) == 2
		c.mu.Unlock()
	}
	id := submit(t, ts, testSpec)
	if st := waitFinished(t, ts, id, 20*time.Second); st.State != "done" || st.Executed != 2 {
		t.Fatalf("status %+v, want done with 2 executed", st)
	}
}

// TestLocalDrainJournalsInFlightJob cancels an in-process worker while its
// job runs: the job finishes and is journaled, Run returns, and a restarted
// coordinator has nothing to redo.
func TestLocalDrainJournalsInFlightJob(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCoordinator(dir, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.LocalHandler())
	defer ts.Close()
	w := c.LocalWorker(WorkerOptions{ID: "l1", Logf: t.Logf})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()

	id := submit(t, ts, `{"workloads":["dgemm"],"schemes":["reuse"],"scale":4}`)
	deadline := time.Now().Add(30 * time.Second)
	for leased := false; !leased; {
		c.mu.Lock()
		leased = len(c.leases) == 1 && c.sweeps[id].doneCount == 0
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the job was never leased")
		}
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("worker did not drain after cancel")
	}
	if st := getStatus(t, ts, id); st.State != "done" || st.Executed != 1 {
		t.Fatalf("status after drain %+v, want done with 1 executed", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newLocal(t, dir, CoordinatorOptions{})
	st := getStatus(t, ts2, id)
	if st.State != "done" || st.Resumed != 1 || st.Pending != 0 || st.Executed != 0 {
		t.Fatalf("restarted status %+v, want done from 1 journaled job", st)
	}
}

// TestLocalHandlerServesOnlySweepAPI: the local surface has no worker
// protocol and no object store, so no client can lease jobs or plant a
// cache entry.
func TestLocalHandlerServesOnlySweepAPI(t *testing.T) {
	c, ts := newLocal(t, t.TempDir(), CoordinatorOptions{})
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/lease", `{"worker":"x"}`},
		{"POST", "/complete", `{"sweep_id":"x","index":0,"worker":"x"}`},
		{"POST", "/heartbeat", `{"worker":"x"}`},
		{"PUT", "/objects/x", `forged`},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
	if _, ok, _ := c.Store().Get("x"); ok {
		t.Error("PUT /objects/x reached the store")
	}
	for _, path := range []string{"/sweeps", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestWorkerTimeoutFailsSweep: every attempt of the one job times out, so
// the job spends its two retries and the sweep fails naming it.
func TestWorkerTimeoutFailsSweep(t *testing.T) {
	c, ts := newLocal(t, t.TempDir(), CoordinatorOptions{Retries: 2})
	startLocalWorker(t, c, WorkerOptions{ID: "l1", JobTimeout: time.Nanosecond})
	id := submit(t, ts, `{"workloads":["poly_horner"],"schemes":["reuse"],"scale":1}`)
	st := waitFinished(t, ts, id, time.Minute)
	if st.State != "failed" || !strings.Contains(st.Error, "poly_horner/reuse@0") || !strings.Contains(st.Error, "timed out") {
		t.Fatalf("status %+v, want a failed sweep naming poly_horner/reuse@0", st)
	}
	for name, want := range map[string]uint64{
		"fabric_jobs_retried":  2,
		"fabric_jobs_failed":   1,
		"fabric_sweeps_failed": 1,
	} {
		if n := counterValue(t, ts, name); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
}

// panicStore is a blob store whose every call panics.
type panicStore struct{}

func (panicStore) Get(string) ([]byte, bool, error) { panic("blob store broken") }
func (panicStore) Put(string, []byte) error         { panic("blob store broken") }

// TestWorkerContainsPanic: a job that panics, here in its fast-forward's
// checkpoint store, fails the in-process worker's attempt without a cache
// entry, and the same worker then runs a sweep to the end.
func TestWorkerContainsPanic(t *testing.T) {
	c, ts := newLocal(t, t.TempDir(), CoordinatorOptions{})
	w := c.LocalWorker(WorkerOptions{ID: "l1", Logf: t.Logf})
	job := sweep.Job{Workload: "poly_horner", Scheme: "baseline", Scale: 1, FastForward: 1000}
	ckpts := w.ckpts
	w.ckpts = ckpt.NewStoreWith(panicStore{})
	if _, _, _, err := w.attempt(job, 1); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("attempt err = %v, want the contained panic", err)
	}
	if _, ok := c.cache.Get(job.Key()); ok {
		t.Error("a panicked attempt left a cache entry")
	}
	w.ckpts = ckpts
	runLocalWorker(t, w)
	id := submit(t, ts, testSpec)
	if st := waitFinished(t, ts, id, 20*time.Second); st.State != "done" || st.Executed != 2 {
		t.Fatalf("status %+v, want done with 2 executed", st)
	}
}

// TestAdmitFailsWhenSpecUnwritable: recovery finds sweeps only through
// spec.json, so a sweep whose spec cannot be written is refused.
func TestAdmitFailsWhenSpecUnwritable(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCoordinator(dir, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var spec sweep.Spec
	if err := json.Unmarshal([]byte(testSpec), &spec); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "sweeps", "blocked-1", specFile, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	jobs, keys, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.admit("blocked-1", spec, jobs, keys, false); err == nil {
		t.Fatal("admit accepted a sweep whose spec.json could not be written")
	}
}

// TestRecoverListsBadSpecsAsFailed: a torn spec.json and one that no longer
// validates do not keep the coordinator from starting; they are listed as
// failed next to the finished sweep.
func TestRecoverListsBadSpecsAsFailed(t *testing.T) {
	dir := t.TempDir()
	c1, ts1 := newLocal(t, dir, CoordinatorOptions{})
	startLocalWorker(t, c1, WorkerOptions{ID: "l1"})
	good := submit(t, ts1, testSpec)
	waitDone(t, ts1, good)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	for id, spec := range map[string]string{
		"torn-1":    `{"name":"torn","workloads":["poly_ho`,
		"unknown-1": `{"workloads":["nope"],"schemes":["reuse"]}`,
	} {
		if err := os.MkdirAll(filepath.Join(dir, "sweeps", id), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "sweeps", id, specFile), []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, ts2 := newLocal(t, dir, CoordinatorOptions{})
	for id, want := range map[string]string{good: "done", "torn-1": "failed", "unknown-1": "failed"} {
		st := getStatus(t, ts2, id)
		if st.State != want || (want == "failed") != (st.Error != "") {
			t.Errorf("%s: status %+v, want %s", id, st, want)
		}
	}
	if n := counterValue(t, ts2, "fabric_sweeps_recovered"); n != 1 {
		t.Errorf("fabric_sweeps_recovered = %d, want 1", n)
	}
}

// TestCloseReportsJournalsInIDOrder: Close reports every journal it fails
// to close, each under its sweep's id and the lower id first, so the error
// is the same on every run whatever the order of the sweeps map. Each run
// submits groupSpec twice to a coordinator with no worker, which leaves both
// sweeps running with open journals, and closes both journal files first.
func TestCloseReportsJournalsInIDOrder(t *testing.T) {
	var want string
	for run := 0; run < 20; run++ {
		dir := t.TempDir()
		c, ts := newLocal(t, dir, CoordinatorOptions{})
		ids := []string{submit(t, ts, groupSpec), submit(t, ts, groupSpec)}
		sort.Strings(ids)
		c.mu.Lock()
		for _, id := range ids {
			if err := c.sweeps[id].journal.f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		c.mu.Unlock()
		err := c.Close()
		if err == nil {
			t.Fatal("Close of two closed journals returned nil")
		}
		got := strings.ReplaceAll(err.Error(), dir, "<dir>")
		if run == 0 {
			lines := strings.Split(got, "\n")
			if len(lines) != 2 || !strings.HasPrefix(lines[0], "sweep "+ids[0]+": ") || !strings.HasPrefix(lines[1], "sweep "+ids[1]+": ") {
				t.Fatalf("Close error %q: want one line per sweep, %s first", got, ids[0])
			}
			want = got
		} else if got != want {
			t.Fatalf("run %d: Close error %q, run 0 gave %q", run, got, want)
		}
	}
}
