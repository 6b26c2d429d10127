package fabric

import (
	"bufio"
	"encoding/json"
	"os"

	"repro/internal/sweep"
)

// Run-directory artifact names: <dir>/sweeps/<id> holds the submitted
// spec, the job journal and, once every job succeeded, the results.
const (
	specFile     = "spec.json"
	manifestFile = "manifest.jsonl"
	resultsFile  = "results.json"
)

// manifestEntry is one line of a sweep's append-only JSONL journal: a
// completed job, how its result was obtained, and the result itself.
// Because results are embedded, resuming never re-reads the cache — a run
// directory is self-contained.
type manifestEntry struct {
	Key    string          `json:"key"`
	Source string          `json:"source"` // "run" | "cache"
	Result sweep.JobResult `json:"result"`
}

// loadManifest reads a manifest tolerantly: a truncated or corrupt line
// (the tail of a killed run) ends the scan, and everything before it
// counts. A missing file is an empty manifest.
//
//repro:deterministic
func loadManifest(path string) map[string]manifestEntry {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	done := map[string]manifestEntry{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var e manifestEntry
		if json.Unmarshal(sc.Bytes(), &e) != nil || e.Key == "" {
			break
		}
		done[e.Key] = e
	}
	return done
}

// manifest appends completed jobs to the journal. The coordinator
// serializes appends under its state mutex; each line is flushed and
// synced immediately so a kill loses at most the in-flight line, which
// loadManifest tolerates.
type manifest struct {
	f *os.File
}

// openManifest opens (creating if needed) the journal for appending.
func openManifest(path string) (*manifest, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &manifest{f: f}, nil
}

// add journals one entry and syncs it.
//
//repro:deterministic
func (m *manifest) add(e manifestEntry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := m.f.Write(data); err != nil {
		return err
	}
	return m.f.Sync()
}

// close closes the journal file.
func (m *manifest) close() error { return m.f.Close() }
