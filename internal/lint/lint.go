// Package lint implements renamelint, the repository's stdlib-only static
// analyzer. It enforces the simulator invariants that otherwise live only in
// code review: bit-exact determinism (the golden-stats test, checkpoint fuzz
// and the sweep cache all assume it), allocation-free hot paths (statically
// complementing the runtime TestCoreStepZeroAllocs gate), the paper's
// (physReg, version) tag-pairing rule, and the nil-observer fast path.
//
// The package deliberately depends only on go/ast, go/types and friends — no
// golang.org/x/tools — because the module carries zero external dependencies
// and builds offline. Loading (see load.go) shells out to the go tool for
// export data instead of reimplementing an importer.
//
// Analyzers are opted into per scope with directive comments:
//
//	//repro:deterministic   package doc or func doc — determinism analyzer
//	//repro:hotpath         func doc — hotpath analyzer
//	//repro:obsemit         func doc — the function is an observer-emission
//	                        helper; its body may emit unguarded, but its
//	                        call sites must sit behind a nil-observer check
//	//repro:allow <analyzer> <reason>
//	                        same line, line above, or func doc — suppress
//	//repro:guardedby <mu>  field doc/line comment — the field is protected
//	                        by the named mutex path; "none" opts a field out
//	                        of struct-level inference
//	//repro:schema <name> v<N>
//	                        struct type doc — the struct's shape is locked
//	                        against the committed golden in schemas/
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Finding is one diagnostic. The JSON field names are the renamelint artifact
// schema, pinned by cmd/ckjson in make smoke.
type Finding struct {
	File            string `json:"file"`
	Line            int    `json:"line"`
	Col             int    `json:"col"`
	Analyzer        string `json:"analyzer"`
	AnalyzerVersion int    `json:"analyzer_version"`
	Message         string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker. Run inspects a single loaded package and
// reports findings through the pass.
type Analyzer struct {
	Name    string
	Doc     string
	Version int // bumped whenever the analyzer's semantics change; carried per finding
	Run     func(*Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Hotpath, TagPair, ObsGuard, GuardedBy, Snapshot, SchemaLock}
}

// Pass couples one analyzer with one package for a Run invocation.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	findings *[]Finding
}

// Reportf records a finding at pos unless an //repro:allow directive for this
// analyzer covers it (same line, the line above, or the enclosing function's
// doc comment).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.Directives.allowed(p.Analyzer.Name, position) {
		return
	}
	if fd := p.Pkg.enclosingFunc(pos); fd != nil && p.Pkg.Directives.funcAllowed(p.Analyzer.Name, fd) {
		return
	}
	*p.findings = append(*p.findings, Finding{
		File:            position.Filename,
		Line:            position.Line,
		Col:             position.Column,
		Analyzer:        p.Analyzer.Name,
		AnalyzerVersion: p.Analyzer.Version,
		Message:         fmt.Sprintf(format, args...),
	})
}

// Run loads the packages named by patterns and applies each analyzer to each
// package, returning findings sorted by file, line and analyzer.
func Run(patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	pkgs, err := Load(patterns)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Pkg: pkg, findings: &findings})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
