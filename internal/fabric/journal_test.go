package fabric

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// groupSpec is a 4-job grid: enough lines to tear a journal batch in its
// first, middle and last line.
const groupSpec = `{"name":"group","workloads":["poly_horner","qsortint"],"schemes":["baseline","reuse"],"scale":1,"sizes":[64]}`

// journalSync is one call of the journal sync seam: the run directory whose
// manifest was synced, and whether that directory already held
// results.json at the time.
type journalSync struct {
	runDir      string
	resultsSeen bool
}

// recordJournalSyncs swaps the journal sync for one that also records each
// call, until the test ends, and returns a function listing the calls so
// far. Call it before starting any coordinator or worker: registered first,
// its cleanup runs after theirs, so no goroutine reads the seam while it
// changes.
func recordJournalSyncs(t *testing.T) func() []journalSync {
	t.Helper()
	var mu sync.Mutex
	var calls []journalSync
	orig := syncJournal
	syncJournal = func(f *os.File) error {
		dir := filepath.Dir(f.Name())
		_, err := os.Stat(filepath.Join(dir, resultsFile))
		mu.Lock()
		calls = append(calls, journalSync{runDir: dir, resultsSeen: err == nil})
		mu.Unlock()
		return orig(f)
	}
	t.Cleanup(func() { syncJournal = orig })
	return func() []journalSync {
		mu.Lock()
		defer mu.Unlock()
		return append([]journalSync(nil), calls...)
	}
}

// warmCoordinator runs groupSpec cold on a local-mode coordinator over dir
// with one in-process worker, and returns the coordinator, its server and
// the cold sweep's id. Every job of groupSpec is then in dir's store.
func warmCoordinator(t *testing.T, dir string) (*Coordinator, *httptest.Server, string) {
	t.Helper()
	c, ts := newLocal(t, dir, CoordinatorOptions{})
	startLocalWorker(t, c, WorkerOptions{ID: "l1"})
	cold := submit(t, ts, groupSpec)
	if st := waitDone(t, ts, cold); st.Executed != 4 {
		t.Fatalf("cold status %+v, want 4 executed", st)
	}
	return c, ts, cold
}

// readManifest returns a sweep's manifest.jsonl bytes.
func readManifest(t *testing.T, dir, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "sweeps", id, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// copyTree copies the regular files under src to the same paths under dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCacheHitSubmitSyncsOnce: a resubmission whose every job is a cache
// hit journals them with one sync, and that sync happens before
// results.json is written and before POST /sweeps answers.
func TestCacheHitSubmitSyncsOnce(t *testing.T) {
	syncs := recordJournalSyncs(t)
	dir := t.TempDir()
	_, ts, _ := warmCoordinator(t, dir)
	before := len(syncs())

	id := submit(t, ts, groupSpec)
	calls := syncs()[before:]
	if len(calls) != 1 {
		t.Fatalf("the all-hit resubmission synced its journal %d times by the time it was answered, want 1", len(calls))
	}
	if want := filepath.Join(dir, "sweeps", id); calls[0].runDir != want {
		t.Errorf("synced %s, want the resubmitted sweep's %s", calls[0].runDir, want)
	}
	if calls[0].resultsSeen {
		t.Error("results.json was written before the journal batch was synced")
	}
	if st := getStatus(t, ts, id); st.State != "done" || st.CacheHits != 4 || st.Executed != 0 {
		t.Errorf("resubmission status %+v, want done with 4 cache hits", st)
	}
	if n := len(bytes.SplitAfter(readManifest(t, dir, id), []byte("\n"))) - 1; n != 4 {
		t.Errorf("resubmitted manifest has %d lines, want 4", n)
	}
}

// TestGroupCommitMatchesPerJobJournal: the batch a resubmission journals
// is, line for line and in job order, what the per-job completion path
// writes for the same grid. The reference sweep finds the store empty at
// admission, gets the results into its store before its worker starts, and
// so completes every job as a worker-side cache hit, one synced line each.
func TestGroupCommitMatchesPerJobJournal(t *testing.T) {
	syncs := recordJournalSyncs(t)
	warmDir := t.TempDir()
	_, warmTS, _ := warmCoordinator(t, warmDir)
	grouped := readManifest(t, warmDir, submit(t, warmTS, groupSpec))

	refDir := t.TempDir()
	ref, refTS := newLocal(t, refDir, CoordinatorOptions{})
	refID := submit(t, refTS, groupSpec)
	if st := getStatus(t, refTS, refID); st.Pending != 4 {
		t.Fatalf("reference status %+v, want 4 pending", st)
	}
	copyTree(t, filepath.Join(warmDir, "objects"), filepath.Join(refDir, "objects"))
	before := len(syncs())
	startLocalWorker(t, ref, WorkerOptions{ID: "ref"})
	if st := waitDone(t, refTS, refID); st.CacheHits != 4 || st.Executed != 0 {
		t.Fatalf("reference status %+v, want 4 worker-side cache hits", st)
	}
	if n := len(syncs()) - before; n != 4 {
		t.Errorf("4 completions synced the journal %d times, want one sync each", n)
	}
	perJob := readManifest(t, refDir, refID)
	if !bytes.Equal(grouped, perJob) {
		t.Errorf("group-committed manifest differs from the per-job one\ngrouped:\n%s\nper job:\n%s", grouped, perJob)
	}

	keys := groupKeys(t)
	lines := bytes.Split(bytes.TrimSuffix(grouped, []byte("\n")), []byte("\n"))
	if len(lines) != len(keys) {
		t.Fatalf("manifest has %d lines, want %d", len(lines), len(keys))
	}
	for i, line := range lines {
		var e manifestEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if e.Key != keys[i] || e.Source != "cache" {
			t.Errorf("line %d is %s from %q, want job %d's key %s from cache", i+1, e.Key, e.Source, i, keys[i])
		}
	}
}

// TestTornBatchResumes cuts a resubmission's journal batch inside its k-th
// line, as a kill during the batch's write would, and loses results.json.
// The restarted coordinator resumes the k-1 whole lines, serves the rest
// from its store without executing anything, and rewrites results.json
// byte for byte. It journals those hits in place of the torn tail, so the
// journal again reads whole and a second crash would lose nothing.
func TestTornBatchResumes(t *testing.T) {
	dir := t.TempDir()
	c, ts, _ := warmCoordinator(t, dir)
	id := submit(t, ts, groupSpec)
	want, err := os.ReadFile(filepath.Join(dir, "sweeps", id, resultsFile))
	if err != nil {
		t.Fatal(err)
	}
	manifest := readManifest(t, dir, id)
	lines := bytes.SplitAfter(manifest, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty tail after the last newline
	if len(lines) != 4 {
		t.Fatalf("manifest has %d lines, want 4", len(lines))
	}
	c.Close()

	for k := 1; k <= len(lines); k++ {
		crash := t.TempDir()
		copyTree(t, dir, crash)
		runDir := filepath.Join(crash, "sweeps", id)
		torn := bytes.Join(lines[:k-1], nil)
		torn = append(torn, lines[k-1][:len(lines[k-1])/2]...)
		if err := os.WriteFile(filepath.Join(runDir, manifestFile), torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(filepath.Join(runDir, resultsFile)); err != nil {
			t.Fatal(err)
		}

		_, crashTS := newLocal(t, crash, CoordinatorOptions{})
		st := getStatus(t, crashTS, id)
		if st.State != "done" || st.Resumed != k-1 || st.CacheHits != len(lines)-(k-1) || st.Executed != 0 {
			t.Errorf("torn in line %d: status %+v, want done with %d resumed and %d cache hits", k, st, k-1, len(lines)-(k-1))
			continue
		}
		if got := getResults(t, crashTS, id); !bytes.Equal(got, want) {
			t.Errorf("torn in line %d: results.json differs from the uninterrupted run's", k)
		}
		if got := readManifest(t, crash, id); !bytes.Equal(got, manifest) {
			t.Errorf("torn in line %d: the recovered journal is not the uninterrupted run's\ngot:\n%s", k, got)
		}
	}
}

// TestRecoverRewritesIncompleteResults: a finished sweep whose results.json
// came back empty or cut short after a crash is not taken for done. The
// restarted coordinator resumes it from its manifest, executes nothing,
// and serves and stores the original bytes again.
func TestRecoverRewritesIncompleteResults(t *testing.T) {
	dir := t.TempDir()
	c, _, cold := warmCoordinator(t, dir)
	path := filepath.Join(dir, "sweeps", cold, resultsFile)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	for name, corrupt := range map[string][]byte{
		"empty":     nil,
		"truncated": want[:len(want)/2],
	} {
		crash := t.TempDir()
		copyTree(t, dir, crash)
		if err := os.WriteFile(filepath.Join(crash, "sweeps", cold, resultsFile), corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ts := newLocal(t, crash, CoordinatorOptions{})
		st := getStatus(t, ts, cold)
		if st.State != "done" || st.Resumed != 4 || st.Executed != 0 {
			t.Errorf("%s results.json: status %+v, want done with 4 resumed", name, st)
			continue
		}
		if got := getResults(t, ts, cold); !bytes.Equal(got, want) {
			t.Errorf("%s results.json: served %d bytes, want the original %d", name, len(got), len(want))
		}
		disk, err := os.ReadFile(filepath.Join(crash, "sweeps", cold, resultsFile))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(disk, want) {
			t.Errorf("%s results.json: not rewritten on disk", name)
		}
		if n := counterValue(t, ts, "fabric_jobs_executed"); n != 0 {
			t.Errorf("%s results.json: fabric_jobs_executed = %d, want 0", name, n)
		}
	}
}

// TestJournalLinesMatchEncoder: every journal line, spliced from a row,
// is the line json.Encoder writes for its manifestEntry. It covers the
// cold pass's worker completions ("run"), a resubmission's batch of hits
// ("cache") and, through appendLine directly, a sampled result.
func TestJournalLinesMatchEncoder(t *testing.T) {
	dir := t.TempDir()
	_, ts, cold := warmCoordinator(t, dir)
	warm := submit(t, ts, groupSpec)
	check := func(name string, lines []byte) {
		t.Helper()
		for n, line := range bytes.SplitAfter(lines, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var e manifestEntry
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("%s line %d: %v", name, n+1, err)
			}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(e); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(line, want.Bytes()) {
				t.Errorf("%s line %d:\n%s\nwant json.Encoder's\n%s", name, n+1, line, want.Bytes())
			}
		}
	}
	check("cold manifest", readManifest(t, dir, cold))
	check("warm manifest", readManifest(t, dir, warm))

	r := sweep.JobResult{Cycles: 9, Insts: 4, IPC: 0.4444444444444444, ChecksumOK: true, FFInsts: 100,
		Sampled: &sweep.SampleSummary{Plan: "2000:5000:100000", Samples: 3, IPCMean: 1e21, IPCStdErr: 5e-324, Coverage: 0.05}}
	row, err := sweep.EncodeRow(sweep.Job{Workload: "dgemm", Scheme: "reuse", Scale: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	check("sampled line", appendLine(nil, groupKeys(t)[0], "run", row))
}
