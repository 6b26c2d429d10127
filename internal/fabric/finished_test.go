package fabric

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// statusGrid is a 198-job grid, every kernel at two sizes under every
// scheme, the shape of perfbench's fast-forward service grid.
const statusGrid = `{"name":"status","schemes":["baseline","reuse","early"],"scale":1,"sizes":[56,96],"max_insts":2000}`

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestFinishedSweepsKeepStatusOnly: a finished sweep keeps only its status
// record. With statusGrid's results in the store and no worker, each of
// 100 resubmissions finishes as it is admitted; together they grow the
// live heap by less than 2 KB per sweep, and each keeps no per-job slice.
// A late completion for one of them is ignored, and a restarted
// coordinator recovers them as the same records.
func TestFinishedSweepsKeepStatusOnly(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCoordinator(dir, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var spec sweep.Spec
	if err := json.Unmarshal([]byte(statusGrid), &spec); err != nil {
		t.Fatal(err)
	}
	jobs, keys, err := spec.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		r := sweep.JobResult{Cycles: uint64(3000 + i), Insts: 2000, IPC: 2000 / float64(3000+i), ChecksumOK: true, Allocations: uint64(i)}
		if err := c.cache.Put(keys[i], j, r); err != nil {
			t.Fatal(err)
		}
	}
	h := c.LocalHandler()
	submitGrid := func() string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweeps", strings.NewReader(statusGrid)))
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || rec.Code != http.StatusAccepted {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body.Bytes())
		}
		return sub.ID
	}
	first := submitGrid()

	const n = 100
	before := liveHeap()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = submitGrid()
	}
	after := liveHeap()
	per := (int64(after) - int64(before)) / n
	t.Logf("live heap grew by %d bytes per finished sweep", per)
	if per >= 2048 {
		t.Errorf("%d finished sweeps grew the live heap by %d bytes each, want under 2048", n, per)
	}

	c.mu.Lock()
	for _, id := range append(ids, first) {
		s := c.sweeps[id]
		if s.state != "done" || s.doneCount != len(jobs) || s.cacheHits != len(jobs) {
			t.Fatalf("sweep %s: state %s with %d done and %d cache hits, want done with %d hits", id, s.state, s.doneCount, s.cacheHits, len(jobs))
		}
		if s.jobs != nil || s.keys != nil || s.rows != nil || s.done != nil || s.source != nil ||
			s.errs != nil || s.attempts != nil || s.holder != nil {
			t.Fatalf("finished sweep %s kept per-job state", id)
		}
	}
	c.mu.Unlock()

	resp, err := c.complete(CompleteRequest{SweepID: first, Index: len(jobs) - 1, Worker: "late", Source: "run"})
	if err != nil || resp.Status != "ignored" {
		t.Errorf("late completion for a finished sweep: %+v, %v; want ignored", resp, err)
	}
	if _, err := c.complete(CompleteRequest{SweepID: first, Index: len(jobs), Worker: "late"}); err == nil {
		t.Error("a completion past the grid's last job was accepted")
	}

	c.Close()
	re, err := NewCoordinator(dir, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	re.mu.Lock()
	defer re.mu.Unlock()
	s := re.sweeps[first]
	if st := re.statusLocked(s); st.State != "done" || st.Jobs != len(jobs) || st.Resumed != len(jobs) {
		t.Errorf("recovered status %+v, want done with %d jobs resumed", st, len(jobs))
	}
	if s.jobs != nil || s.rows != nil {
		t.Error("a recovered finished sweep kept per-job state")
	}
}
