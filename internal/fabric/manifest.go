package fabric

import (
	"bytes"
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
// directory is self-contained. appendLine writes the lines; loadManifest
// reads them back.
type manifestEntry struct {
	Key    string          `json:"key"`
	Source string          `json:"source"` // "run" | "cache"
	Result sweep.JobResult `json:"result"`
}

// appendLine appends the journal line of a job's outcome to b: the bytes
// json.Encoder writes for manifestEntry{key, source, row.Result}, spliced
// from the row's compact result. A key is hex and a source one of a few
// fixed words, so neither needs escaping, and journaling a recorded row
// encodes nothing.
//
//repro:deterministic
func appendLine(b []byte, key, source string, row *sweep.Row) []byte {
	b = append(b, `{"key":"`...)
	b = append(b, key...)
	b = append(b, `","source":"`...)
	b = append(b, source...)
	b = append(b, `","result":`...)
	b = append(b, row.Line...)
	return append(b, "}\n"...)
}

// loadManifest reads a manifest tolerantly: a line that is cut short or
// corrupt (the torn tail of a killed run) ends the scan, and every whole
// line before it counts. It also returns the length of those whole lines,
// where appending may resume. A missing file is an empty manifest.
//
//repro:deterministic
func loadManifest(path string) (done map[string]manifestEntry, whole int64) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0
	}
	done = map[string]manifestEntry{}
	for {
		n := bytes.IndexByte(data[whole:], '\n')
		if n < 0 {
			break
		}
		var e manifestEntry
		if json.Unmarshal(data[whole:whole+int64(n)], &e) != nil || e.Key == "" {
			break
		}
		done[e.Key] = e
		whole += int64(n) + 1
	}
	return done, whole
}

// manifest appends completed jobs to the journal. The coordinator
// serializes appends under its state mutex. Each append is one write and
// one sync: a submission's cache hits go in as one batch, and each worker
// completion as one line. A kill therefore loses at most the append in
// flight, which leaves a torn tail that loadManifest tolerates.
type manifest struct {
	f *os.File
}

// syncJournal makes a journal append durable. It is a variable only so
// that tests can count the syncs an append path costs.
var syncJournal = (*os.File).Sync

// openManifest opens (creating if needed) the journal for appending after
// its first whole bytes, the whole lines loadManifest read. A torn tail
// beyond them is cut off: a line appended behind it would join it into one
// unreadable line and be lost to the next recovery.
func openManifest(path string, whole int64) (*manifest, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(whole); err != nil {
		f.Close()
		return nil, err
	}
	return &manifest{f: f}, nil
}

// add journals lines, whole appendLine lines in the order given, with one
// write and one sync. Batching changes only the number of syncs: the bytes
// are those of one add per line.
//
//repro:deterministic
func (m *manifest) add(lines []byte) error {
	if len(lines) == 0 {
		return nil
	}
	if _, err := m.f.Write(lines); err != nil {
		return err
	}
	return syncJournal(m.f)
}

// close closes the journal file.
func (m *manifest) close() error { return m.f.Close() }
