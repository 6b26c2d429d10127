package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SchemaLock pins the shape of serialized structs. A struct annotated
//
//	//repro:schema <name> v<N>
//
// in its type doc comment gets a canonical fingerprint — struct name,
// declared version, and every field's Go name, JSON tag and type, in
// declaration order — checked against a committed golden under schemas/.
// Any shape change without bumping the version AND regenerating the golden
// via `renamelint -update-schemas` is an error, so wire formats (sweep
// specs and results, bench artifacts, fabric protocol messages) cannot
// drift silently under consumers that parse them.
//
// The golden directory is the nearest `schemas` directory at or above the
// package, not crossing the module root (whose `schemas/` is the default);
// SchemaDir overrides the resolution (the -schema-dir flag, used by the CI
// no-drift gate to regenerate into a scratch copy).
var SchemaLock = &Analyzer{
	Name:    "schemalock",
	Version: 1,
	Doc:     "checks //repro:schema struct fingerprints against committed schemas/ goldens",
	Run:     runSchemaLock,
}

// SchemaDir, when non-empty, overrides golden-directory resolution for both
// checking and updating.
var SchemaDir string

const dirSchema = "//repro:schema"

// schemaGolden is the committed golden document for one schema.
type schemaGolden struct {
	Schema      string        `json:"schema"`
	Version     int           `json:"version"`
	Struct      string        `json:"struct"`
	Package     string        `json:"package"`
	Fingerprint string        `json:"fingerprint"`
	Fields      []schemaField `json:"fields"`
}

// schemaField is one struct field in canonical form.
type schemaField struct {
	Name string `json:"name"`
	JSON string `json:"json,omitempty"`
	Type string `json:"type"`
}

// schemaDecl is one annotated struct found in source.
type schemaDecl struct {
	name    string
	version int
	ts      *ast.TypeSpec
	st      *types.Struct
}

func runSchemaLock(p *Pass) {
	decls := findSchemaDecls(p, true)
	if len(decls) == 0 {
		return
	}
	dir := resolveSchemaDir(p.Pkg.Dir)
	for _, d := range decls {
		golden, err := readGolden(dir, d.name)
		cur := fingerprint(p.Pkg, d)
		switch {
		case err != nil:
			p.Reportf(d.ts.Name.Pos(), "schema %q v%d has no committed golden in %s; run `renamelint -update-schemas` to create it", d.name, d.version, dir)
		case golden.Version == d.version && golden.Fingerprint != cur.Fingerprint:
			p.Reportf(d.ts.Name.Pos(), "schema %q shape changed without a version bump (golden and source both say v%d but fingerprints differ: %s); bump the //repro:schema version and run `renamelint -update-schemas`",
				d.name, d.version, diffFields(golden, cur))
		case golden.Version != d.version && golden.Fingerprint != cur.Fingerprint:
			p.Reportf(d.ts.Name.Pos(), "schema %q golden is stale (golden v%d, source v%d); run `renamelint -update-schemas` to regenerate it", d.name, golden.Version, d.version)
		case golden.Version != d.version:
			p.Reportf(d.ts.Name.Pos(), "schema %q version mismatch (golden v%d, source v%d) with an identical shape; run `renamelint -update-schemas`", d.name, golden.Version, d.version)
		}
	}
}

// UpdateSchemas loads the packages named by patterns and (re)writes the
// golden for every //repro:schema struct. It refuses to overwrite a golden
// whose shape changed but whose version did not — the whole point of the
// lock — and returns the paths it wrote.
func UpdateSchemas(patterns []string) ([]string, error) {
	pkgs, err := Load(patterns)
	if err != nil {
		return nil, err
	}
	var written []string
	for _, pkg := range pkgs {
		pass := &Pass{Analyzer: SchemaLock, Pkg: pkg, findings: &[]Finding{}}
		decls := findSchemaDecls(pass, false)
		if len(decls) == 0 {
			continue
		}
		dir := resolveSchemaDir(pkg.Dir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return written, err
		}
		for _, d := range decls {
			cur := fingerprint(pkg, d)
			old, err := readGolden(dir, d.name)
			if err == nil {
				if old.Fingerprint == cur.Fingerprint && old.Version == cur.Version {
					continue // up to date
				}
				if old.Version == d.version && old.Fingerprint != cur.Fingerprint {
					return written, fmt.Errorf("schema %q: shape changed but version is still v%d; bump the //repro:schema version before regenerating (%s)",
						d.name, d.version, diffFields(old, cur))
				}
			}
			path := filepath.Join(dir, d.name+".json")
			data, err := json.MarshalIndent(cur, "", "\t")
			if err != nil {
				return written, err
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				return written, err
			}
			written = append(written, path)
		}
	}
	sort.Strings(written)
	return written, nil
}

// findSchemaDecls scans the package for //repro:schema annotations. Malformed
// directives are reported when report is set (the check pass) and skipped
// during updates.
func findSchemaDecls(p *Pass, report bool) []schemaDecl {
	var out []schemaDecl
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				name, version, found, perr := schemaDirective(doc)
				if !found {
					continue
				}
				if perr != "" {
					if report {
						p.Reportf(ts.Name.Pos(), "bad //repro:schema directive: %s (want `//repro:schema <name> v<N>`)", perr)
					}
					continue
				}
				obj := p.Pkg.Info.Defs[ts.Name]
				if obj == nil {
					continue
				}
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					if report {
						p.Reportf(ts.Name.Pos(), "//repro:schema on non-struct type %s", ts.Name.Name)
					}
					continue
				}
				out = append(out, schemaDecl{name: name, version: version, ts: ts, st: st})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// schemaDirective parses `//repro:schema <name> v<N>` from a doc comment.
func schemaDirective(doc *ast.CommentGroup) (name string, version int, found bool, parseErr string) {
	if doc == nil {
		return "", 0, false, ""
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, dirSchema)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", 0, true, fmt.Sprintf("got %d arguments, want 2", len(fields))
		}
		vs, ok := strings.CutPrefix(fields[1], "v")
		if !ok {
			return "", 0, true, fmt.Sprintf("version %q does not start with 'v'", fields[1])
		}
		v, err := strconv.Atoi(vs)
		if err != nil || v < 1 {
			return "", 0, true, fmt.Sprintf("bad version %q", fields[1])
		}
		if !ValidSchemaName(fields[0]) {
			return "", 0, true, fmt.Sprintf("bad schema name %q", fields[0])
		}
		return fields[0], v, true, ""
	}
	return "", 0, false, ""
}

// ValidSchemaName reports whether name is a safe golden file stem:
// lowercase letters, digits, '-', '_' and '.'; no path separators.
func ValidSchemaName(name string) bool {
	if name == "" || len(name) > 100 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return !strings.HasPrefix(name, ".")
}

// fingerprint renders d into its golden document. The canonical text hashed
// into Fingerprint covers the schema name, struct name, and every field's
// (name, json tag, type) in declaration order; types are printed
// package-name-qualified so the text is stable across checkouts. The version
// is deliberately NOT hashed: fingerprints answer "did the shape change",
// the version field answers "was the change declared" — keeping them
// independent is what lets the checker distinguish an undeclared shape
// change from a declared one with a stale golden.
func fingerprint(pkg *Package, d schemaDecl) schemaGolden {
	qual := func(p *types.Package) string { return p.Name() }
	g := schemaGolden{
		Schema:  d.name,
		Version: d.version,
		Struct:  d.ts.Name.Name,
		Package: pkg.Types.Name(),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s struct %s\n", d.name, d.ts.Name.Name)
	for i := 0; i < d.st.NumFields(); i++ {
		f := d.st.Field(i)
		tag := jsonTagName(d.st.Tag(i))
		sf := schemaField{
			Name: f.Name(),
			JSON: tag,
			Type: types.TypeString(f.Type(), qual),
		}
		g.Fields = append(g.Fields, sf)
		fmt.Fprintf(&b, "field %s json=%s type=%s\n", sf.Name, orDash(sf.JSON), sf.Type)
	}
	sum := sha256.Sum256([]byte(b.String()))
	g.Fingerprint = "sha256:" + hex.EncodeToString(sum[:])
	return g
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// jsonTagName extracts the json key (with options like ",omitempty" kept —
// they are part of the wire shape).
func jsonTagName(tag string) string {
	return reflectStructTagGet(tag, "json")
}

// reflectStructTagGet is reflect.StructTag.Get without importing reflect's
// value machinery into the analyzer (same quoting rules).
func reflectStructTagGet(tag, key string) string {
	for tag != "" {
		i := 0
		for i < len(tag) && tag[i] == ' ' {
			i++
		}
		tag = tag[i:]
		if tag == "" {
			break
		}
		i = 0
		for i < len(tag) && tag[i] > ' ' && tag[i] != ':' && tag[i] != '"' {
			i++
		}
		if i == 0 || i+1 >= len(tag) || tag[i] != ':' || tag[i+1] != '"' {
			break
		}
		name := tag[:i]
		tag = tag[i+1:]
		qv, err := strconv.QuotedPrefix(tag)
		if err != nil {
			break
		}
		tag = tag[len(qv):]
		if name == key {
			v, _ := strconv.Unquote(qv)
			return v
		}
	}
	return ""
}

// diffFields summarizes what moved between two golden shapes, for the
// finding message.
func diffFields(old, cur schemaGolden) string {
	oldSet := map[string]schemaField{}
	for _, f := range old.Fields {
		oldSet[f.Name] = f
	}
	curSet := map[string]schemaField{}
	for _, f := range cur.Fields {
		curSet[f.Name] = f
	}
	var parts []string
	for _, f := range cur.Fields {
		o, ok := oldSet[f.Name]
		switch {
		case !ok:
			parts = append(parts, "+"+f.Name)
		case o != f:
			parts = append(parts, "~"+f.Name)
		}
	}
	for _, f := range old.Fields {
		if _, ok := curSet[f.Name]; !ok {
			parts = append(parts, "-"+f.Name)
		}
	}
	if len(parts) == 0 {
		return "field order changed"
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// readGolden loads one committed golden.
func readGolden(dir, name string) (schemaGolden, error) {
	var g schemaGolden
	data, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("schemas/%s.json: %w", name, err)
	}
	return g, nil
}

// resolveSchemaDir finds the golden directory for a package rooted at
// pkgDir: SchemaDir if set, else the nearest existing `schemas` directory
// walking up from pkgDir, stopping at (and defaulting to) the module root.
func resolveSchemaDir(pkgDir string) string {
	if SchemaDir != "" {
		return SchemaDir
	}
	dir := pkgDir
	for {
		cand := filepath.Join(dir, "schemas")
		if fi, err := os.Stat(cand); err == nil && fi.IsDir() {
			return cand
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return filepath.Join(dir, "schemas")
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return filepath.Join(pkgDir, "schemas")
		}
		dir = parent
	}
}
