package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// testSpec is a 2-point grid cheap enough to simulate many times per test.
const testSpec = `{"name":"fab","workloads":["poly_horner"],"schemes":["baseline","reuse"],"scale":1,"sizes":[64]}`

// serialResults runs the spec through a serial in-process sweep.Run and
// returns its results.json bytes — the byte-identity reference for every
// fabric test.
func serialResults(t *testing.T, specJSON string) []byte {
	t.Helper()
	var spec sweep.Spec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(context.Background(), spec, sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := sweep.MarshalResults(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestCoordinator(t *testing.T, dir string, opts CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := NewCoordinator(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { c.Close() })
	return c, ts
}

// startWorker runs a fabric worker against the coordinator until the test
// ends (or stop is called).
func startWorker(t *testing.T, ts *httptest.Server, id string) context.CancelFunc {
	t.Helper()
	w, err := NewWorker(WorkerOptions{
		Coordinator: ts.URL,
		Dir:         t.TempDir(),
		ID:          id,
		Poll:        10 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
	return cancel
}

// submit posts a spec, requires 202 with a non-empty id, and returns the
// id.
func submit(t *testing.T, ts *httptest.Server, spec string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("empty sweep id")
	}
	return out.ID
}

// waitDone polls a sweep until it is done, failing the test if it fails or
// is still running after a minute.
func waitDone(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	st := waitFinished(t, ts, id, time.Minute)
	if st.State == "failed" {
		t.Fatalf("sweep failed: %s", st.Error)
	}
	return st
}

// waitFinished polls a sweep until it is done or failed, failing the test
// if it is still running after timeout.
func waitFinished(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State != "running" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep did not finish within %s", timeout)
	return SweepStatus{}
}

func getStatus(t *testing.T, ts *httptest.Server, id string) SweepStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getResults(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d: %s", resp.StatusCode, buf.String())
	}
	return buf.Bytes()
}

func counterValue(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Metrics []struct {
			Name  string `json:"name"`
			Kind  string `json:"kind"`
			Value uint64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, c := range snap.Metrics {
		if c.Name == name && c.Kind == "counter" {
			return c.Value
		}
	}
	t.Fatalf("counter %q not in /metrics", name)
	return 0
}

// TestFabricByteIdenticalToSerial is the tentpole contract: one coordinator
// plus two workers must produce a results.json byte-for-byte equal to a
// serial single-process run of the same spec.
func TestFabricByteIdenticalToSerial(t *testing.T) {
	want := serialResults(t, testSpec)

	dir := t.TempDir()
	c, ts := newTestCoordinator(t, dir, CoordinatorOptions{})
	startWorker(t, ts, "w1")
	startWorker(t, ts, "w2")

	id := submit(t, ts, testSpec)
	st := waitDone(t, ts, id)
	if st.Executed != 2 || st.Failed != 0 {
		t.Fatalf("status %+v, want 2 executed", st)
	}
	got := getResults(t, ts, id)
	if !bytes.Equal(got, want) {
		t.Errorf("fabric results differ from serial run\nfabric: %d bytes\nserial: %d bytes", len(got), len(want))
	}
	// The artifact on disk is the same bytes the endpoint serves.
	disk, err := os.ReadFile(filepath.Join(dir, "sweeps", id, resultsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, want) {
		t.Error("on-disk results.json differs from serial run")
	}
	if n := counterValue(t, ts, "fabric_jobs_executed"); n != 2 {
		t.Errorf("fabric_jobs_executed = %d, want 2", n)
	}
	_ = c
}

// TestWorkerLossReleases kills a worker mid-grid (a "zombie" that leases
// every job and never heartbeats) and requires the grid to complete anyway:
// the leases expire, the jobs are re-leased to a live worker, the retries
// are visible in /metrics, and the results are still byte-identical to a
// serial run.
func TestWorkerLossReleases(t *testing.T) {
	want := serialResults(t, testSpec)

	_, ts := newTestCoordinator(t, t.TempDir(), CoordinatorOptions{LeaseTTL: 150 * time.Millisecond, Retries: 3})
	id := submit(t, ts, testSpec)

	// The zombie takes both jobs and dies without completing or heartbeating.
	var zombieLeases []LeaseResponse
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/lease", "application/json", strings.NewReader(`{"worker":"zombie"}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("zombie lease %d: status %d", i, resp.StatusCode)
		}
		var lr LeaseResponse
		if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		zombieLeases = append(zombieLeases, lr)
	}

	// While the grid is stuck on the zombie, the results endpoint serves the
	// in-progress view.
	resp, err := http.Get(ts.URL + "/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var partial struct {
		State     string           `json:"state"`
		Completed int              `json:"completed"`
		Total     int              `json:"total"`
		Result    *sweep.RunResult `json:"result"`
	}
	err = json.NewDecoder(resp.Body).Decode(&partial)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if partial.State != "running" || partial.Total != 2 || partial.Result == nil || len(partial.Result.Jobs) != 2 {
		t.Fatalf("partial view %+v", partial)
	}

	// A live worker shows up; once the zombie's leases expire it steals the
	// jobs and finishes the grid.
	startWorker(t, ts, "rescuer")
	st := waitDone(t, ts, id)
	if st.Done != 2 || st.Failed != 0 {
		t.Fatalf("status %+v", st)
	}
	if !bytes.Equal(getResults(t, ts, id), want) {
		t.Error("results after worker loss differ from serial run")
	}
	for name, min := range map[string]uint64{
		"fabric_lease_expiries": 2,
		"fabric_releases":       2,
		"fabric_jobs_retried":   2,
		"fabric_steals":         2,
	} {
		if n := counterValue(t, ts, name); n < min {
			t.Errorf("%s = %d, want >= %d", name, n, min)
		}
	}

	// The zombie wakes up and reports one of its long-expired leases; the
	// job already completed elsewhere, so the completion is ignored.
	late, _ := json.Marshal(CompleteRequest{
		LeaseID: zombieLeases[0].LeaseID,
		SweepID: zombieLeases[0].SweepID,
		Index:   zombieLeases[0].Index,
		Worker:  "zombie",
		Source:  "run",
	})
	lresp, err := http.Post(ts.URL+"/complete", "application/json", bytes.NewReader(late))
	if err != nil {
		t.Fatal(err)
	}
	var cr CompleteResponse
	err = json.NewDecoder(lresp.Body).Decode(&cr)
	lresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cr.Status != "ignored" {
		t.Errorf("late complete status %q, want ignored", cr.Status)
	}
	if n := counterValue(t, ts, "fabric_late_completes"); n != 1 {
		t.Errorf("fabric_late_completes = %d, want 1", n)
	}
}

// TestRerunServedFromSharedStore re-submits a completed spec and requires
// the whole grid to come from the shared store: no leases, no executions,
// all cache hits — the fabric analogue of the engine's cache contract.
func TestRerunServedFromSharedStore(t *testing.T) {
	_, ts := newTestCoordinator(t, t.TempDir(), CoordinatorOptions{})
	startWorker(t, ts, "w1")

	id := submit(t, ts, testSpec)
	waitDone(t, ts, id)
	first := getResults(t, ts, id)
	executed := counterValue(t, ts, "fabric_jobs_executed")

	id2 := submit(t, ts, testSpec)
	st := waitDone(t, ts, id2)
	if st.CacheHits != 2 || st.Executed != 0 {
		t.Fatalf("re-run status %+v, want 2 cache hits", st)
	}
	if n := counterValue(t, ts, "fabric_jobs_executed"); n != executed {
		t.Errorf("re-run executed jobs: %d -> %d", executed, n)
	}
	if n := counterValue(t, ts, "fabric_jobs_cache_hits"); n != 2 {
		t.Errorf("fabric_jobs_cache_hits = %d, want 2", n)
	}
	if !bytes.Equal(first, getResults(t, ts, id2)) {
		t.Error("re-run results differ")
	}
}

// TestWorkerLocalReadThrough points a worker with a warm local object cache
// at a brand-new coordinator whose store is empty: every job completes as a
// worker-side cache hit (source "cache"), with zero simulator executions
// anywhere.
func TestWorkerLocalReadThrough(t *testing.T) {
	// Warm a worker scratch dir through a first coordinator.
	_, ts1 := newTestCoordinator(t, t.TempDir(), CoordinatorOptions{})
	warmDir := t.TempDir()
	w1, err := NewWorker(WorkerOptions{Coordinator: ts1.URL, Dir: warmDir, ID: "warm", Poll: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	done1 := make(chan struct{})
	go func() { defer close(done1); _ = w1.Run(ctx1) }()
	id := submit(t, ts1, testSpec)
	want := serialResults(t, testSpec)
	waitDone(t, ts1, id)
	cancel1()
	<-done1

	// Fresh coordinator, empty store; same worker scratch dir.
	_, ts2 := newTestCoordinator(t, t.TempDir(), CoordinatorOptions{})
	w2, err := NewWorker(WorkerOptions{Coordinator: ts2.URL, Dir: warmDir, ID: "warm2", Poll: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); _ = w2.Run(ctx2) }()
	t.Cleanup(func() { cancel2(); <-done2 })

	id2 := submit(t, ts2, testSpec)
	st := waitDone(t, ts2, id2)
	if st.CacheHits != 2 || st.Executed != 0 {
		t.Fatalf("status %+v, want 2 worker-side cache hits", st)
	}
	if n := counterValue(t, ts2, "fabric_jobs_executed"); n != 0 {
		t.Errorf("fabric_jobs_executed = %d, want 0", n)
	}
	if !bytes.Equal(getResults(t, ts2, id2), want) {
		t.Error("read-through results differ from serial run")
	}
}

// TestCoordinatorRecovery kills the coordinator mid-sweep (one job
// completed, one pending) and requires the next coordinator process to
// resume from the fsynced manifest: the finished job becomes a "resume"
// entry, only the remainder is re-leased, and the final artifact is still
// byte-identical to a serial run.
func TestCoordinatorRecovery(t *testing.T) {
	want := serialResults(t, testSpec)
	dir := t.TempDir()

	c1, err := NewCoordinator(dir, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(c1.Handler())
	id := submit(t, ts1, testSpec)

	// Complete exactly one job by hand, then "crash" the coordinator.
	resp, err := http.Post(ts1.URL+"/lease", "application/json", strings.NewReader(`{"worker":"hand"}`))
	if err != nil {
		t.Fatal(err)
	}
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	res, _, err := sweep.Execute(lr.Job, nil, lr.SampleWorkers)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(CompleteRequest{
		LeaseID: lr.LeaseID, SweepID: lr.SweepID, Index: lr.Index,
		Worker: "hand", Source: "run", Result: res,
	})
	cresp, err := http.Post(ts1.URL+"/complete", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	ts1.Close()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the sweep is recovered with one resumed job and one pending.
	c2, ts2 := newTestCoordinator(t, dir, CoordinatorOptions{})
	if n := counterValue(t, ts2, "fabric_sweeps_recovered"); n != 1 {
		t.Fatalf("fabric_sweeps_recovered = %d, want 1", n)
	}
	startWorker(t, ts2, "finisher")
	st := waitDone(t, ts2, id)
	if st.Resumed != 1 || st.Executed != 1 {
		t.Fatalf("recovered status %+v, want 1 resumed + 1 executed", st)
	}
	if !bytes.Equal(getResults(t, ts2, id), want) {
		t.Error("recovered results differ from serial run")
	}
	_ = c2
}

// TestWorkerDrain requires Run to return promptly (and cleanly) when its
// context is cancelled while idle — the SIGTERM path of -mode=worker.
func TestWorkerDrain(t *testing.T) {
	_, ts := newTestCoordinator(t, t.TempDir(), CoordinatorOptions{})
	w, err := NewWorker(WorkerOptions{Coordinator: ts.URL, Dir: t.TempDir(), ID: "drainer", Poll: 10 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	time.Sleep(50 * time.Millisecond) // let it go idle
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not drain after cancel")
	}
}

// TestCoordinatorRejectsBadInput covers the protocol's error edges.
func TestCoordinatorRejectsBadInput(t *testing.T) {
	_, ts := newTestCoordinator(t, t.TempDir(), CoordinatorOptions{})
	for path, body := range map[string]string{
		"/sweeps":    `{"workloads":["nope"],"schemes":["reuse"]}`,
		"/lease":     `{}`,
		"/heartbeat": `{"worker":""}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400", path, body, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/complete", "application/json",
		strings.NewReader(`{"sweep_id":"nope","index":0,"worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("complete for unknown sweep: status %d, want 404", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/sweeps/unknown/results"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown results: status %d, want 404", resp.StatusCode)
		}
	}
}
