// Command renamelint runs the repository's invariant analyzers (see
// internal/lint) over Go packages and reports findings as file:line
// diagnostics or, with -json, as a machine-readable artifact whose schema is
// pinned by cmd/ckjson in make smoke. The exit status is 1 when any finding
// survives, so `make lint` is a hard CI gate.
//
// Usage:
//
//	renamelint [-json] [-enable determinism,hotpath,tagpair,obsguard,guardedby,snapshot,schemalock] [packages]
//	renamelint -update-schemas [packages]
//
// With no package arguments it analyzes ./... The -update-schemas mode
// regenerates the committed schema goldens for every //repro:schema struct
// (after a deliberate shape change with a version bump) instead of checking
// them; -schema-dir overrides where goldens are read and written.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

// schemaVersion gates the -json artifact layout. v2 added per-finding
// analyzer_version. The analyzers field names the analyzers run, in
// lint.All() order by default: determinism, hotpath, tagpair, obsguard,
// guardedby, snapshot, schemalock.
const schemaVersion = 2

type artifact struct {
	SchemaVersion int            `json:"schema_version"`
	Analyzers     []string       `json:"analyzers"`
	Findings      []lint.Finding `json:"findings"`
	Count         int            `json:"count"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit the findings artifact as JSON on stdout")
	enable := flag.String("enable", "", "comma-separated analyzers to run (default: all)")
	updateSchemas := flag.Bool("update-schemas", false, "regenerate schema goldens for //repro:schema structs instead of checking them")
	schemaDir := flag.String("schema-dir", "", "directory for schema goldens (default: nearest schemas/ dir up from each package)")
	flag.Parse()

	if *schemaDir != "" {
		lint.SchemaDir = *schemaDir
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *updateSchemas {
		written, err := lint.UpdateSchemas(patterns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "renamelint:", err)
			os.Exit(2)
		}
		for _, path := range written {
			fmt.Println("wrote", path)
		}
		return
	}

	analyzers, err := selectAnalyzers(*enable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renamelint:", err)
		os.Exit(2)
	}

	findings, err := lint.Run(patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "renamelint:", err)
		os.Exit(2)
	}

	if *jsonOut {
		names := make([]string, len(analyzers))
		for i, a := range analyzers {
			names[i] = a.Name
		}
		if findings == nil {
			findings = []lint.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(artifact{
			SchemaVersion: schemaVersion,
			Analyzers:     names,
			Findings:      findings,
			Count:         len(findings),
		}); err != nil {
			fmt.Fprintln(os.Stderr, "renamelint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func selectAnalyzers(enable string) ([]*lint.Analyzer, error) {
	all := lint.All()
	if enable == "" {
		return all, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(enable, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
