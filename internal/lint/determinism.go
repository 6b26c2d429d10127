package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// Determinism is the one analyzer for //repro:deterministic scopes. It
// bans wall-clock reads (time.Now/Since/Until) and the global math/rand
// generator (a seeded *rand.Rand is fine), and it runs a function-local,
// one-call-deep taint pass for map iteration order. Sources are the key
// and value of a range over a map (or over anything already tainted);
// taint flows through expressions, calls (a result carries its arguments'
// and its receiver's taint), append, assignments and composite literals,
// and from one loop iteration into the next. A tainted value is flagged
// where it reaches a sink without passing through a sort:
//
//   - return statements, bare returns of named results included (the order
//     escapes to the caller);
//   - fmt print/fprint calls and Write/WriteString/Encode-style method
//     calls on values from other packages (the order reaches an output);
//   - channel sends;
//   - calls through a function value (a callback runs in map order);
//   - state that outlives the call: a package variable, or a receiver or
//     parameter of pointer, slice, map or channel type, still tainted
//     where the function returns (flagged where it was tainted);
//   - calls into same-package functions that pass the tainted parameter
//     to one of the above (one call deep).
//
// sort.* and slices.Sort* calls clear their argument, so collect-then-sort
// stays clean. Keyed writes into maps and numeric op-assignments do not
// taint (the contents are a set; the folds commute), but string += does.
// len and cap of a tainted container are untainted. A method with a
// pointer receiver that is passed a tainted value taints its receiver
// (l.PushBack(k) makes l order-dependent); value receivers such as
// time.Time.After do not. A return, goto or break that can leave a map
// range before it has visited every entry taints every variable the body
// assigns, ++ and -- included, since how far the loop got depends on the
// order; continue does not. Being function-local, the pass follows no
// store through a local alias of caller-visible state (l := c.list), and
// it does not see a keyed write that pairs each key with state earlier
// iterations changed (out[k] = c.alloc()).
var Determinism = &Analyzer{
	Name:    "determinism",
	Version: 2,
	Doc:     "flags wall-clock, global math/rand, and map iteration order reaching output or caller-visible state unsorted in //repro:deterministic scopes",
	Run:     runDeterminism,
}

func runDeterminism(p *Pass) {
	var decls []*ast.FuncDecl
	funcs := map[types.Object]*ast.FuncDecl{}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && p.Pkg.Info.Defs[fd.Name] != nil {
				decls = append(decls, fd)
				funcs[p.Pkg.Info.Defs[fd.Name]] = fd
			}
		}
	}
	shared := &flowShared{p: p, funcs: funcs, summaries: map[summaryKey]flowSummary{}}
	for _, fd := range decls {
		if p.Pkg.Directives.Deterministic(fd) {
			shared.newFlow(fd, nil).run(fd)
		}
	}
}

// flowShared is the per-package state shared between the top-level pass and
// callee summaries.
type flowShared struct {
	p         *Pass
	funcs     map[types.Object]*ast.FuncDecl
	summaries map[summaryKey]flowSummary
}

type summaryKey struct {
	fn    types.Object
	param int
}

// flowSummary describes what a callee does with one tainted parameter.
type flowSummary struct {
	emits   bool // the parameter reaches a sink inside the callee
	returns bool // the parameter (or a derivative) is returned
}

// flowAnalysis walks one function body in statement order, tracking which
// objects currently carry map-iteration-order taint.
type flowAnalysis struct {
	shared   *flowShared
	report   bool // false while computing a callee summary
	quiet    bool // true while a loop body is walked to its fixpoint
	closures int  // depth inside function literals
	taint    map[types.Object]token.Pos
	site     map[types.Object]token.Pos // where each object was last tainted
	outer    map[types.Object]bool      // receiver and parameters the caller sees
	results  *types.Tuple               // returned by a bare return
	leaked   map[types.Object]bool      // caller-visible state already flagged
	sum      flowSummary                // the summary-mode output
}

// newFlow prepares the walk of fd: top-level when seed is nil, else the
// summary of what fd does with its tainted parameter seed. A summary leaves
// out the receiver, which the call site taints itself, and the seed, whose
// taint is the caller's own.
func (fs *flowShared) newFlow(fd *ast.FuncDecl, seed *types.Var) *flowAnalysis {
	sig := fs.p.Pkg.Info.Defs[fd.Name].Type().(*types.Signature)
	fa := &flowAnalysis{
		shared: fs, report: seed == nil, results: sig.Results(),
		taint:  map[types.Object]token.Pos{},
		site:   map[types.Object]token.Pos{},
		outer:  map[types.Object]bool{},
		leaked: map[types.Object]bool{},
	}
	var vars []*types.Var
	if seed == nil && sig.Recv() != nil {
		vars = append(vars, sig.Recv())
	}
	for i := range sig.Params().Len() {
		vars = append(vars, sig.Params().At(i))
	}
	for _, v := range vars {
		switch v.Type().Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
			fa.outer[v] = v != seed
		}
	}
	if seed != nil {
		fa.taint[seed] = seed.Pos()
	}
	return fa
}

// run walks the function body, then checks what the caller sees when it
// falls off the end.
func (fa *flowAnalysis) run(fd *ast.FuncDecl) {
	fa.stmts(fd.Body.List)
	fa.exit()
}

func (fa *flowAnalysis) info() *types.Info { return fa.shared.p.Pkg.Info }

// aReturn is the sink a return statement names.
const aReturn = "a return value"

// sink records a tainted value reaching what: a finding at the top level, a
// summary flag in a callee, nothing while a loop is walked to its fixpoint.
func (fa *flowAnalysis) sink(at, origin token.Pos, what string) {
	switch {
	case fa.quiet:
	case fa.report:
		fa.shared.p.Reportf(at, "value derived from map iteration (range at line %d) reaches %s without an intervening sort", fa.shared.p.Pkg.Fset.Position(origin).Line, what)
	case what == aReturn:
		fa.sum.returns = true
	default:
		fa.sum.emits = true
	}
}

// exit flags, at a return from the function itself, each variable the
// caller sees after the call that still carries taint: a package variable,
// an imported package's state, or a receiver or parameter referring to the
// caller's memory. Each is flagged once, where it was last tainted.
func (fa *flowAnalysis) exit() {
	if fa.closures > 0 {
		return
	}
	var leaks []types.Object
	for obj := range fa.taint {
		v, isVar := obj.(*types.Var)
		_, imported := obj.(*types.PkgName)
		global := isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
		if (global || imported || fa.outer[obj]) && !fa.leaked[obj] {
			leaks = append(leaks, obj)
		}
	}
	sort.Slice(leaks, func(i, j int) bool { return leaks[i].Pos() < leaks[j].Pos() })
	for _, obj := range leaks {
		fa.leaked[obj] = !fa.quiet
		fa.sink(fa.site[obj], fa.taint[obj], "state that outlives the call ("+obj.Name()+")")
	}
}

// taintRoot marks the base variable of e as carrying taint from origin.
func (fa *flowAnalysis) taintRoot(e ast.Expr, origin token.Pos) {
	if root := rootIdent(e); root != nil {
		if obj := fa.info().ObjectOf(root); obj != nil {
			fa.taint[obj] = origin
			fa.site[obj] = e.Pos()
		}
	}
}

func (fa *flowAnalysis) stmts(list []ast.Stmt) {
	for _, s := range list {
		fa.stmt(s)
	}
}

func (fa *flowAnalysis) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.RangeStmt:
		fa.rangeStmt(s, "")
	case *ast.ForStmt:
		if s.Init != nil {
			fa.stmt(s.Init)
		}
		fa.loop(func() {
			fa.expr(s.Cond)
			fa.stmts(s.Body.List)
			if s.Post != nil {
				fa.stmt(s.Post)
			}
		})
	case *ast.LabeledStmt:
		if r, ok := s.Stmt.(*ast.RangeStmt); ok {
			fa.rangeStmt(r, s.Label.Name)
		} else {
			fa.stmt(s.Stmt)
		}
	case *ast.AssignStmt:
		fa.assign(s)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if pos, tainted := fa.expr(r); tainted {
				fa.sink(r.Pos(), pos, aReturn)
			}
		}
		if len(s.Results) == 0 && fa.closures == 0 {
			for i := range fa.results.Len() {
				if pos, tainted := fa.taint[fa.results.At(i)]; tainted {
					fa.sink(s.Pos(), pos, aReturn)
				}
			}
		}
		fa.exit()
	case *ast.SendStmt:
		fa.expr(s.Chan)
		if pos, tainted := fa.expr(s.Value); tainted {
			fa.sink(s.Value.Pos(), pos, "a channel send")
		}
	case *ast.DeclStmt:
		// var x = v propagates like x := v.
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					fa.assign(&ast.AssignStmt{Lhs: lhs, Tok: token.DEFINE, Rhs: vs.Values})
				}
			}
		}
	default:
		// Every other statement: walk its expressions and nested statements
		// in source order, so no call (sink or ban) goes unseen.
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case ast.Stmt:
				if n == s {
					return true
				}
				fa.stmt(n)
				return false
			case ast.Expr:
				fa.expr(n)
				return false
			}
			return true
		})
	}
}

// loop walks a loop body (with its condition and post statement) as often
// as taint can flow from one iteration into the next: quietly until no
// walk adds a tainted variable, then once more to report. The body may run
// any number of times, so the taint after the loop is the union.
func (fa *flowAnalysis) loop(body func()) {
	quiet := fa.quiet
	for fixed, done := false, false; !done; {
		done, fa.quiet = fixed, quiet || !fixed
		head := maps.Clone(fa.taint)
		body()
		maps.Copy(fa.taint, head)
		fixed = len(fa.taint) == len(head)
	}
}

// rangeStmt taints a map range's key and value (or a tainted collection's)
// on every iteration, walks the body, and, when the body can leave the loop
// early, taints every variable it assigns.
func (fa *flowAnalysis) rangeStmt(s *ast.RangeStmt, label string) {
	origin, tainted := fa.expr(s.X)
	if _, overMap := fa.info().TypeOf(s.X).Underlying().(*types.Map); overMap && !tainted {
		origin, tainted = s.Pos(), true
	}
	fa.loop(func() {
		for _, v := range []ast.Expr{s.Key, s.Value} {
			if v != nil {
				fa.store(v, origin, tainted, true)
			}
		}
		fa.stmts(s.Body.List)
	})
	if !tainted || !leavesEarly(s.Body, label) {
		return
	}
	ast.Inspect(s.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				fa.taintRoot(lhs, origin)
			}
		case *ast.IncDecStmt:
			fa.taintRoot(n.X, origin)
		}
		return true
	})
}

// leavesEarly reports whether a loop body labeled label ("" when unlabeled)
// holds a return, a break of this loop, or a goto, break or continue that
// names a statement outside the body (continue of this loop excepted).
// Branches inside closures, unlabeled breaks inside nested breakable
// statements and branches to labels inside the body stay in the loop.
func leavesEarly(body *ast.BlockStmt, label string) bool {
	inner := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if l, ok := n.(*ast.LabeledStmt); ok {
			inner[l.Label.Name] = true
		}
		_, closure := n.(*ast.FuncLit)
		return !closure
	})
	var walk func(root ast.Node, nested bool) bool
	walk = func(root ast.Node, nested bool) bool {
		found := false
		ast.Inspect(root, func(n ast.Node) bool {
			if found {
				return false // later siblings must not clear it
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				found = true
			case *ast.BranchStmt:
				switch {
				case n.Label != nil:
					found = !inner[n.Label.Name] && (n.Tok != token.CONTINUE || n.Label.Name != label)
				case n.Tok == token.BREAK:
					found = !nested
				}
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if !nested {
					found = walk(n, true)
					return false
				}
			}
			return !found
		})
		return found
	}
	return walk(body, false)
}

// assign propagates taint across an assignment, with strong updates for
// plain identifier targets.
func (fa *flowAnalysis) assign(s *ast.AssignStmt) {
	strong := s.Tok == token.ASSIGN || s.Tok == token.DEFINE
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		pos, tainted := fa.expr(s.Rhs[0]) // one multi-value RHS feeds every LHS
		for _, lhs := range s.Lhs {
			fa.store(lhs, pos, tainted, strong)
		}
		return
	}
	for i, lhs := range s.Lhs {
		pos, tainted := fa.expr(s.Rhs[i])
		if !strong && !(s.Tok == token.ADD_ASSIGN && isString(fa.info().TypeOf(lhs))) {
			tainted = false // numeric op-assignments fold commutatively
		}
		fa.store(lhs, pos, tainted, strong)
	}
}

// store applies one assignment target. Keyed writes into maps stay
// untainted (map contents are a set); a positional write taints the
// container when the value or, for a plain assignment, the index is
// tainted; any other target roots the taint at its base variable. A plain
// identifier assigned an untainted value is strongly cleared.
func (fa *flowAnalysis) store(lhs ast.Expr, pos token.Pos, tainted, strong bool) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if obj := fa.info().ObjectOf(l); obj != nil && !tainted && strong {
			delete(fa.taint, obj)
			return
		}
	case *ast.IndexExpr:
		fa.expr(l.X)
		ipos, itainted := fa.expr(l.Index)
		if _, isMap := fa.info().TypeOf(l.X).Underlying().(*types.Map); isMap {
			return
		}
		if !tainted && itainted && strong {
			pos, tainted = ipos, true
		}
	default:
		fa.expr(lhs)
	}
	if tainted {
		fa.taintRoot(lhs, pos)
	}
}

// expr evaluates an expression for taint, processing every call inside it
// (bans, sanitizers, sinks, summaries) along the way.
func (fa *flowAnalysis) expr(e ast.Expr) (pos token.Pos, tainted bool) {
	switch e := e.(type) {
	case nil:
		return token.NoPos, false
	case *ast.Ident:
		pos, tainted = fa.taint[fa.info().ObjectOf(e)]
		return pos, tainted
	case *ast.CallExpr:
		return fa.call(e)
	case *ast.FuncLit:
		// Closures are walked for sinks with the current taint set; their
		// value itself is untainted.
		fa.closures++
		fa.stmts(e.Body.List)
		fa.closures--
		return token.NoPos, false
	}
	// Any other expression is tainted when one of its operands is.
	ast.Inspect(e, func(n ast.Node) bool {
		sub, ok := n.(ast.Expr)
		if !ok || sub == e {
			return true
		}
		if p, t := fa.expr(sub); t && !tainted {
			pos, tainted = p, true
		}
		return false
	})
	return pos, tainted
}

// call processes one call: ban, builtin, sanitizer, sink, pointer-receiver
// store, or (one level deep) same-package callee summary. It returns the
// taint of the call's result.
func (fa *flowAnalysis) call(call *ast.CallExpr) (token.Pos, bool) {
	info := fa.info()
	name, pkgPath := calleePkgFunc(info, call)
	if fa.report && !fa.quiet {
		switch {
		case pkgPath == "time" && (name == "Now" || name == "Since" || name == "Until"):
			fa.shared.p.Reportf(call.Pos(), "call to time.%s in deterministic scope", name)
		case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && name != "New" && name != "NewSource":
			// New/NewSource are pure constructors; everything else
			// reads or mutates the shared global generator.
			fa.shared.p.Reportf(call.Pos(), "global math/rand call rand.%s in deterministic scope (use a seeded *rand.Rand)", name)
		}
	}
	if isBuiltin(info, call, "len") || isBuiltin(info, call, "cap") || isBuiltin(info, call, "delete") {
		for _, a := range call.Args {
			fa.expr(a) // order-independent observations
		}
		return token.NoPos, false
	}
	if pkgPath == "sort" || (pkgPath == "slices" && strings.HasPrefix(name, "Sort")) {
		for _, a := range call.Args {
			if root := rootIdent(a); root != nil {
				delete(fa.taint, info.ObjectOf(root))
			}
			fa.expr(a)
		}
		return token.NoPos, false
	}
	// The function expression: a method's receiver, or a function value.
	fun := call.Fun
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		fun = sel.X
	}
	funPos, funTainted := fa.expr(fun)
	args := make([]token.Pos, len(call.Args)) // NoPos: untainted
	argPos, argTainted := token.NoPos, false
	for i, a := range call.Args {
		if pos, t := fa.expr(a); t {
			args[i] = pos
			if !argTainted {
				argPos, argTainted = pos, true
			}
		}
	}
	fd := fa.shared.funcs[calleeObj(info, call)] // declared in this package
	if argTainted {
		if recv := pointerRecv(info, call); recv != nil {
			fa.taintRoot(recv, argPos)
		}
		switch sel, isSel := call.Fun.(*ast.SelectorExpr); {
		case pkgPath == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
			fa.sink(call.Pos(), argPos, "fmt."+name)
			return token.NoPos, false
		case isSel && fd == nil && emitMethod(sel.Sel.Name):
			// A same-package method is summarized below; writers and
			// encoders from other packages are terminal sinks.
			fa.sink(call.Pos(), argPos, sel.Sel.Name+" call")
			return token.NoPos, false
		}
	}
	if (argTainted || funTainted) && funcValue(info, call) {
		if !argTainted {
			argPos = funPos
		}
		fa.sink(call.Pos(), argPos, "a call through a function value")
		return token.NoPos, false
	}
	if fd != nil && fa.report {
		// A method's result may come from a tainted receiver; the
		// summaries follow the arguments.
		obj := info.Defs[fd.Name]
		resPos, resTainted := funPos, funTainted
		for i, a := range call.Args {
			if !args[i].IsValid() {
				continue
			}
			sum := fa.shared.summary(obj, fd, i)
			if sum.emits {
				fa.sink(a.Pos(), args[i], "a call to "+fd.Name.Name+", which emits it")
			}
			if sum.returns && !resTainted {
				resPos, resTainted = args[i], true
			}
		}
		return resPos, resTainted
	}
	// Otherwise the result carries the arguments' taint, or the receiver's.
	if argTainted {
		return argPos, true
	}
	return funPos, funTainted
}

// calleeObj resolves the object a call names (a function, method, variable
// or field), or nil for a closure or a call result.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr: // F[T](x), or a slice of funcs
		fun = f.X
	case *ast.IndexListExpr:
		fun = f.X
	}
	switch f := fun.(type) {
	case *ast.Ident:
		return info.Uses[f]
	case *ast.SelectorExpr:
		return info.Uses[f.Sel]
	}
	return nil
}

// summary computes (memoized) what fd does with a taint entering through
// parameter index i.
func (fs *flowShared) summary(obj types.Object, fd *ast.FuncDecl, i int) flowSummary {
	key := summaryKey{fn: obj, param: i}
	if s, ok := fs.summaries[key]; ok {
		return s
	}
	// Seed the memo first so self-recursive callees terminate.
	fs.summaries[key] = flowSummary{}
	params := obj.Type().(*types.Signature).Params()
	if i >= params.Len() {
		return flowSummary{}
	}
	fa := fs.newFlow(fd, params.At(i))
	fa.run(fd)
	fs.summaries[key] = fa.sum
	return fa.sum
}

// pointerRecv returns the receiver expression of a call to a method with a
// pointer receiver, or nil for any other call.
func pointerRecv(info *types.Info, call *ast.CallExpr) ast.Expr {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil
	}
	if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); !ptr {
		return nil
	}
	return sel.X
}

// funcValue reports whether call goes through a function value (a variable,
// field, closure or call result) rather than a declared function or method,
// a builtin or a conversion.
func funcValue(info *types.Info, call *ast.CallExpr) bool {
	if tv := info.Types[call.Fun]; tv.IsType() || tv.IsBuiltin() {
		return false
	}
	_, declared := calleeObj(info, call).(*types.Func)
	return !declared
}

// emitMethod reports whether a method name is an output-stream emission.
func emitMethod(name string) bool {
	switch name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode", "Print", "Printf", "Fprintf":
		return true
	}
	return false
}

// calleePkgFunc resolves a call to a package-level function, returning the
// function name and its package path ("" when the callee is anything else:
// a method, builtin, conversion or local function value).
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (name, pkgPath string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return "", "" // a method call, e.g. (*rand.Rand).Intn, is deterministic if seeded
	}
	return fn.Name(), fn.Pkg().Path()
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
