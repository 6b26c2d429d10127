package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts expected-diagnostic annotations: // want `regex`
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// checkGolden loads one testdata package, runs the given analyzers, and
// verifies the findings exactly match the package's // want comments.
func checkGolden(t *testing.T, dir string, analyzers []*Analyzer) {
	t.Helper()
	findings, err := Run([]string{"./testdata/src/" + dir}, analyzers)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	// Expected diagnostics, keyed by file:line.
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[string][]*want{}
	glob, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(glob) == 0 {
		t.Fatalf("no testdata sources for %s (err=%v)", dir, err)
	}
	for _, path := range glob {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := fmt.Sprintf("%s:%d", abs, i+1)
				wants[key] = append(wants[key], &want{re: regexp.MustCompile(m[1])})
			}
		}
	}

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		consumed := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Message) {
				w.matched = true
				consumed = true
				break
			}
		}
		if !consumed {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q not reported", key, w.re)
			}
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	checkGolden(t, "determinism_bad", []*Analyzer{Determinism})
}

// TestDetflowGolden pins the determinism analyzer's dataflow leaks: values
// built in map order that reach a sink through later statements.
func TestDetflowGolden(t *testing.T) {
	checkGolden(t, "detflow_bad", []*Analyzer{Determinism})
}

func TestDeterminismClean(t *testing.T) {
	checkGolden(t, "determinism_clean", []*Analyzer{Determinism})
}

func TestHotpathGolden(t *testing.T) {
	checkGolden(t, "hotpath_bad", []*Analyzer{Hotpath})
}

func TestTagPairGolden(t *testing.T) {
	checkGolden(t, "tagpair_bad", []*Analyzer{TagPair})
}

func TestObsGuardGolden(t *testing.T) {
	checkGolden(t, "obsguard_bad", []*Analyzer{ObsGuard})
}

func TestGuardedByGolden(t *testing.T) {
	checkGolden(t, "guardedby_bad", []*Analyzer{GuardedBy})
}

func TestGuardedByClean(t *testing.T) {
	checkGolden(t, "guardedby_clean", []*Analyzer{GuardedBy})
}

func TestSnapshotGolden(t *testing.T) {
	checkGolden(t, "snapshot_bad", []*Analyzer{Snapshot})
}

func TestSnapshotClean(t *testing.T) {
	checkGolden(t, "snapshot_clean", []*Analyzer{Snapshot})
}

func TestSchemaLockGolden(t *testing.T) {
	checkGolden(t, "schemalock_bad", []*Analyzer{SchemaLock})
}

func TestSchemaLockClean(t *testing.T) {
	checkGolden(t, "schemalock_clean", []*Analyzer{SchemaLock})
}

// TestGenericsLoad pins the loader on type-parameterized and build-tagged
// sources: the package must typecheck (generic decls, instantiations,
// constraint interfaces) and come out clean under the full suite.
func TestGenericsLoad(t *testing.T) {
	checkGolden(t, "generics_ok", All())
}

// TestCleanPackage runs the full suite over a package built from every
// allowed idiom (collect-then-sort, keyed writes, commutative accumulation,
// receiver-owned appends, guarded emissions, paired tags, //repro:allow) and
// asserts zero findings.
func TestCleanPackage(t *testing.T) {
	checkGolden(t, "clean", All())
}

// TestRepoClean pins the tentpole acceptance criterion: the repository's own
// packages — internal/... AND cmd/..., everything under the repro module —
// carry zero findings from the full seven-analyzer suite. Wildcard patterns
// skip testdata directories, so the seeded-violation packages above do not
// trip it.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping whole-repo lint")
	}
	findings, err := Run([]string{"repro/..."}, All())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
}
