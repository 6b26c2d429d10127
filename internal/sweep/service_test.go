// The sweep service as sweepd -mode=local serves it: a fabric coordinator
// with in-process workers behind its local handler. These tests sit in an
// external test package because fabric imports sweep.
package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fabric"
	"repro/internal/sweep"
)

// serviceSpec is a 2-point grid cheap enough to simulate many times per test.
const serviceSpec = `{"name":"e2e","workloads":["poly_horner"],"schemes":["baseline","reuse"],"scale":1,"sizes":[64]}`

// newService starts a coordinator on dir and serves its local handler.
func newService(t *testing.T, dir string) (*fabric.Coordinator, *httptest.Server) {
	t.Helper()
	c, err := fabric.NewCoordinator(dir, fabric.CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.LocalHandler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { c.Close() })
	return c, ts
}

// startWorkers runs n in-process workers of c; the returned stop cancels
// them and waits for them to drain. It also runs when the test ends.
func startWorkers(t *testing.T, c *fabric.Coordinator, n int) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		w := c.LocalWorker(fabric.WorkerOptions{ID: fmt.Sprintf("local-%d", i+1), Logf: t.Logf})
		go func() {
			_ = w.Run(ctx)
			done <- struct{}{}
		}()
	}
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		for i := 0; i < n; i++ {
			<-done
		}
	}
	t.Cleanup(stop)
	return stop
}

// postSpec submits spec, requires 202 with a new id and the wanted job
// count, and returns the id.
func postSpec(t *testing.T, ts *httptest.Server, spec string, jobs int) string {
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
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" || out.Jobs != jobs {
		t.Fatalf("submit response %+v, want %d jobs", out, jobs)
	}
	return out.ID
}

func getStatus(t *testing.T, ts *httptest.Server, id string) fabric.SweepStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/sweeps/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st fabric.SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitDone polls a sweep until it is done, failing the test if it fails or
// is still running after a minute.
func waitDone(t *testing.T, ts *httptest.Server, id string) fabric.SweepStatus {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		switch st := getStatus(t, ts, id); st.State {
		case "done":
			return st
		case "failed":
			t.Fatalf("sweep failed: %s", st.Error)
		}
	}
	t.Fatal("sweep did not finish in time")
	return fabric.SweepStatus{}
}

// getResults fetches a sweep's results document, requiring 200.
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

// metricValue reads one metric from /metrics: a counter's value, or a
// histogram's sample count.
func metricValue(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Metrics []struct {
			Name  string `json:"name"`
			Value uint64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, m := range snap.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("metric %q not in /metrics", name)
	return 0
}

// serialResults is the byte-identity reference: the spec through a serial
// in-process sweep.Run.
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

// TestServerEndToEnd drives the full local-mode HTTP surface with two
// workers: submit a 2-point sweep, poll to completion, fetch results equal
// to a serial sweep.Run, then re-submit the identical spec and require
// zero additional executions (every job a cache hit) and the same bytes.
func TestServerEndToEnd(t *testing.T) {
	want := serialResults(t, serviceSpec)
	c, ts := newService(t, t.TempDir())
	startWorkers(t, c, 2)

	id := postSpec(t, ts, serviceSpec, 2)
	if st := waitDone(t, ts, id); st.Executed != 2 || st.Done != 2 {
		t.Fatalf("status %+v, want 2 executed", st)
	}
	first := getResults(t, ts, id)
	if !bytes.Equal(first, want) {
		t.Error("local-mode results.json differs from a serial sweep.Run")
	}
	var res sweep.RunResult
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 || res.Results[0].Cycles == 0 || !res.Results[1].ChecksumOK || res.SchemaVersion != sweep.SchemaVersion {
		t.Fatalf("bad results payload: %+v", res)
	}

	// Identical spec again: a new id, all cache hits, zero executions, and
	// the same bytes.
	id2 := postSpec(t, ts, serviceSpec, 2)
	if id2 == id {
		t.Fatalf("re-submission reused id %s", id)
	}
	if st := waitDone(t, ts, id2); st.CacheHits != 2 || st.Executed != 0 {
		t.Fatalf("re-run status %+v, want 2 cache hits", st)
	}
	if !bytes.Equal(getResults(t, ts, id2), first) {
		t.Error("cached re-run produced different results bytes")
	}

	// The list shows both sweeps in submission order.
	resp, err := http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sweeps []fabric.SweepStatus `json:"sweeps"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 2 || list.Sweeps[0].ID != id || list.Sweeps[1].ID != id2 {
		t.Fatalf("list = %+v, want [%s %s]", list.Sweeps, id, id2)
	}
}

// TestServerRejectsBadSpecs: a spec that does not decode or validate is a
// 400, and an unknown sweep is a 404.
func TestServerRejectsBadSpecs(t *testing.T) {
	_, ts := newService(t, t.TempDir())
	for _, body := range []string{
		`{`,                             // malformed
		`{"workloads":["poly_horner"]}`, // no schemes
		`{"workloads":["poly_horner"],"schemes":["bogus"]}`,                 // bad scheme
		`{"workloads":["nope"],"schemes":["reuse"]}`,                        // bad workload
		`{"workloads":["poly_horner"],"schemes":["reuse"],"x":1}`,           // unknown field
		`{"workloads":["poly_horner"],"schemes":["baseline"],"sizes":[32]}`, // 32 registers
		`{"workloads":["poly_horner"],"schemes":["reuse"],"sizes":[34]}`,    // 32 in the hybrid
	} {
		resp, err := http.Post(ts.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/sweeps/unknown")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsAccounting runs the same sweep twice through local mode: the
// fabric_* counters count every job once, the executions only the first
// time, and fabric_job_ms holds one sample per execution.
func TestMetricsAccounting(t *testing.T) {
	c, ts := newService(t, t.TempDir())
	startWorkers(t, c, 1)
	for i := 0; i < 2; i++ {
		waitDone(t, ts, postSpec(t, ts, serviceSpec, 2))
	}
	for name, want := range map[string]uint64{
		"fabric_jobs_total":      4,
		"fabric_jobs_executed":   2,
		"fabric_jobs_cache_hits": 2,
		"fabric_jobs_failed":     0,
		"fabric_job_ms":          2,
	} {
		if n := metricValue(t, ts, name); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
}

// TestResumeFromTruncatedManifest simulates a kill during a journal
// append: a finished 4-job sweep keeps its first 2 manifest lines plus half
// of the third, and loses results.json. The restarted service resumes the
// 2 journaled jobs, serves the other 2 from its store, and writes a
// byte-identical results.json.
func TestResumeFromTruncatedManifest(t *testing.T) {
	const spec = `{"workloads":["poly_horner","qsortint"],"schemes":["baseline","reuse"],"scale":1,"sizes":[64]}`
	dir := t.TempDir()
	c1, ts1 := newService(t, dir)
	stop := startWorkers(t, c1, 2)
	id := postSpec(t, ts1, spec, 4)
	waitDone(t, ts1, id)
	want := getResults(t, ts1, id)
	stop()
	ts1.Close()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	runDir := filepath.Join(dir, "sweeps", id)
	manifestPath := filepath.Join(runDir, "manifest.jsonl")
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("manifest has %d lines, want >= 4", len(lines))
	}
	truncated := append([]byte{}, lines[0]...)
	truncated = append(truncated, lines[1]...)
	truncated = append(truncated, lines[2][:len(lines[2])/2]...) // torn in-flight line
	if err := os.WriteFile(manifestPath, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(runDir, "results.json")); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newService(t, dir)
	st := waitDone(t, ts2, id)
	if st.Resumed != 2 || st.CacheHits != 2 || st.Executed != 0 {
		t.Fatalf("resumed status %+v, want 2 resumed + 2 cache hits", st)
	}
	if got := getResults(t, ts2, id); !bytes.Equal(got, want) {
		t.Error("resumed results.json differs from the uninterrupted run's")
	}
	disk, err := os.ReadFile(filepath.Join(runDir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, want) {
		t.Error("results.json on disk differs from the uninterrupted run's")
	}
}
