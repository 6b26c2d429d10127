// Command ckjson validates a JSON document on stdin: it must parse, and
// every dot-separated field path given as an argument must be present. Used
// by `make smoke` to check the shape of machine-readable run artifacts.
//
//	renamesim -workload poly_horner -json | ckjson ipc cycles pipeline.Committed metrics.counters
//
// A path step that is a non-negative integer indexes into an array
// (trace_event files: `ckjson traceEvents.0.ph < out.json`). A step of the
// form `#name` selects the array element whose "name" field equals name
// (metrics snapshots: `ckjson 'metrics.#fabric_jobs_executed.value'`). An
// argument of the form `path=value` additionally asserts the value at the
// path: numbers compare numerically, everything else by its printed form
// (`ckjson results.0.checksum_ok=true`).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func lookup(doc any, path string) (any, error) {
	cur := doc
	for _, stepStr := range strings.Split(path, ".") {
		if sel, ok := strings.CutPrefix(stepStr, "#"); ok {
			arr, isArr := cur.([]any)
			if !isArr {
				return nil, fmt.Errorf("path %q: %q selects by name but the value is not an array", path, stepStr)
			}
			found := false
			for _, el := range arr {
				if obj, isObj := el.(map[string]any); isObj && obj["name"] == sel {
					cur, found = el, true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("path %q: no array element with name %q", path, sel)
			}
			continue
		}
		switch v := cur.(type) {
		case map[string]any:
			next, ok := v[stepStr]
			if !ok {
				return nil, fmt.Errorf("missing field %q (of path %q)", stepStr, path)
			}
			cur = next
		case []any:
			i, err := strconv.Atoi(stepStr)
			if err != nil || i < 0 || i >= len(v) {
				return nil, fmt.Errorf("bad array index %q (of path %q, array length %d)", stepStr, path, len(v))
			}
			cur = v[i]
		default:
			return nil, fmt.Errorf("path %q: %q is not an object or array", path, stepStr)
		}
	}
	return cur, nil
}

// assert compares the value at a path against the expected literal from a
// `path=value` argument. JSON numbers decode as float64, so numeric
// expectations compare numerically; everything else by printed form.
func assert(got any, want string) error {
	if f, isNum := got.(float64); isNum {
		w, err := strconv.ParseFloat(want, 64)
		if err != nil {
			return fmt.Errorf("got number %v, want %q", f, want)
		}
		if f != w {
			return fmt.Errorf("got %v, want %v", f, w)
		}
		return nil
	}
	if s := fmt.Sprint(got); s != want {
		return fmt.Errorf("got %s, want %s", s, want)
	}
	return nil
}

func main() {
	var doc any
	dec := json.NewDecoder(os.Stdin)
	if err := dec.Decode(&doc); err != nil {
		fmt.Fprintln(os.Stderr, "ckjson: invalid JSON:", err)
		os.Exit(1)
	}
	bad := false
	for _, arg := range os.Args[1:] {
		path, want, hasWant := strings.Cut(arg, "=")
		got, err := lookup(doc, path)
		if err == nil && hasWant {
			if aerr := assert(got, want); aerr != nil {
				err = fmt.Errorf("path %q: %w", path, aerr)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ckjson:", err)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}
