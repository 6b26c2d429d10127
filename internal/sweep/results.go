package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// Row is one job's result, encoded once in the forms the sweep artifacts
// embed: JobJSON and ResultJSON are the job and result objects as
// results.json holds them (inside the jobs and results arrays, indented
// with tabs at depth 2), and Line is the result as a compact manifest line
// embeds it. A service that answers the same key again reuses the row
// instead of encoding the result anew.
type Row struct {
	Result     JobResult
	JobJSON    []byte
	ResultJSON []byte
	Line       []byte
}

// EncodeRow encodes job j and its result r. It fails where json.Marshal
// fails, on a NaN or infinite float.
func EncodeRow(j Job, r JobResult) (*Row, error) {
	job, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	// Indentation adds about a third to a flat object's compact form.
	var buf bytes.Buffer
	buf.Grow((len(job) + len(line)) * 3 / 2)
	// An element at depth 2 of a tab-indented document: every line after
	// its first starts with two tabs. Marshal's output is valid JSON, so
	// Indent cannot fail.
	_ = json.Indent(&buf, job, "\t\t", "\t")
	n := buf.Len()
	_ = json.Indent(&buf, line, "\t\t", "\t")
	b := buf.Bytes()
	return &Row{Result: r, JobJSON: b[:n:n], ResultJSON: b[n:], Line: line}, nil
}

// AssembleResults writes results.json from a grid's encoded rows, in job
// order: the bytes json.MarshalIndent(res, "", "\t") plus a newline gives
// for the RunResult of that version, spec and rows. A nil rows writes both
// arrays as null, as MarshalIndent writes nil slices.
func AssembleResults(version int, spec Spec, rows []*Row) ([]byte, error) {
	sp, err := json.MarshalIndent(spec, "\t", "\t")
	if err != nil {
		return nil, err
	}
	n := 64 + len(sp)
	for _, r := range rows {
		n += len(r.JobJSON) + len(r.ResultJSON) + 8
	}
	b := make([]byte, 0, n)
	b = append(b, "{\n\t\"schema_version\": "...)
	b = strconv.AppendInt(b, int64(version), 10)
	b = append(b, ",\n\t\"spec\": "...)
	b = append(b, sp...)
	b = append(b, ",\n\t\"jobs\": "...)
	b = appendArray(b, rows, func(r *Row) []byte { return r.JobJSON })
	b = append(b, ",\n\t\"results\": "...)
	b = appendArray(b, rows, func(r *Row) []byte { return r.ResultJSON })
	return append(b, "\n}\n"...), nil
}

// appendArray appends the depth-1 array of each row's field to b.
func appendArray(b []byte, rows []*Row, field func(*Row) []byte) []byte {
	switch {
	case rows == nil:
		return append(b, "null"...)
	case len(rows) == 0:
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n\t\t"...)
		b = append(b, field(r)...)
	}
	return append(b, "\n\t]"...)
}

// MarshalResults renders the results.json artifact: it encodes each job's
// row and assembles them, the one writer of the file. It depends only on
// the spec and the (deterministic) per-job results, never on scheduling
// order or on how each result was obtained — which is why a sweepd run's
// artifact, resumed or not, matches a serial Run's byte for byte. Jobs and
// Results must be parallel.
func MarshalResults(res *RunResult) ([]byte, error) {
	if len(res.Jobs) != len(res.Results) || (res.Jobs == nil) != (res.Results == nil) {
		return nil, fmt.Errorf("sweep: %d jobs but %d results", len(res.Jobs), len(res.Results))
	}
	var rows []*Row
	if res.Jobs != nil {
		rows = make([]*Row, len(res.Jobs))
	}
	for i, j := range res.Jobs {
		r, err := EncodeRow(j, res.Results[i])
		if err != nil {
			return nil, err
		}
		rows[i] = r
	}
	return AssembleResults(res.SchemaVersion, res.Spec, rows)
}
