package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoallocAnalyzer checks functions annotated `//netsamp:noalloc` for
// allocation, both in the function's own constructs and through what it
// calls. It is the static complement of the alloc-pinning benchmarks
// (BenchmarkSolveReuse, the warm-chain pin): the benchmarks prove the
// composed hot path allocates zero bytes per op; this check points at
// the exact line when a refactor reintroduces an allocation, before any
// benchmark runs.
//
// Flagged constructs inside an annotated function:
//
//   - make, new;
//   - slice and map composite literals, and &T{...} (escaping
//     composites);
//   - append whose result is not reassigned to the slice being appended
//     to (x = append(x, ...) and the buffer-reuse form
//     x = append(x[:0], ...) are the amortized in-place idioms and are
//     allowed; y := append(x, ...) grows a fresh backing array);
//   - string([]byte) / []byte(string) conversions;
//   - explicit conversions to interface types (boxing);
//   - implicit boxing at call sites: a concrete non-pointer-shaped
//     value passed where the callee declares an interface parameter
//     allocates to materialize the interface's data word (pointers,
//     maps, channels and funcs are the data word themselves and pass
//     for free; interface-typed arguments pass through unboxed);
//   - function literals (potential closure allocations);
//   - go statements (goroutine stacks).
//
// Calls are checked against the annotation set, which turns it into a
// checked call graph. A noalloc function may only call:
//
//   - builtins (make/new/append are the construct rules' job);
//   - functions the same package annotates //netsamp:noalloc;
//   - functions a dependency package annotates //netsamp:noalloc
//     (resolved through PackageFacts, which the standalone driver and
//     the vettool's .vetx files both carry);
//   - recognized allocation-free leaves (the whitelist below: math,
//     math/bits, sync/atomic wholesale, plus specific sync/sort/slices
//     entries);
//   - interface methods, provided every in-package concrete
//     implementation of that method is itself noalloc-annotated (the
//     RateModel hook pattern: the dispatch is dynamic but the
//     implementation set is closed);
//   - a body-local variable only ever assigned function literals
//     defined in the same body (the `mix := func(...)` helper-closure
//     idiom): those literals are part of the inspected body.
//
// Anything else — fmt, errors.New, an unannotated helper, a call
// through a plain function value — is one finding per call; boxing into
// a call already flagged is not reported again. Error paths are exempt
// in one narrow form: calls (and the boxing of their arguments) inside
// an if-body whose last statement is a return or a panic, because the
// zero-alloc contract covers the steady state, not the failure exits.
// Everything else needs `//netsamp:alloc-ok <reason>` on the flagged
// line.
var NoallocAnalyzer = &Analyzer{
	Name: "noalloc",
	Doc:  "check //netsamp:noalloc functions for allocating constructs and for calls to functions not known to be allocation-free",
	Run:  runNoalloc,
}

// noallocLeafPkgs are packages whose exported functions and methods are
// allocation-free wholesale.
var noallocLeafPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// noallocLeafFuncs are individually recognized allocation-free leaves,
// keyed "pkgpath.Fn" or "pkgpath.Type.Method". DESIGN.md §10 documents
// the list; extend it only for functions whose steady state provably
// does not allocate.
var noallocLeafFuncs = map[string]bool{
	"sync.Mutex.Lock":           true,
	"sync.Mutex.Unlock":         true,
	"sync.Mutex.TryLock":        true,
	"sync.RWMutex.Lock":         true,
	"sync.RWMutex.Unlock":       true,
	"sync.RWMutex.RLock":        true,
	"sync.RWMutex.RUnlock":      true,
	"sync.WaitGroup.Add":        true,
	"sync.WaitGroup.Done":       true,
	"sync.WaitGroup.Wait":       true,
	"sort.Search":               true,
	"sort.SearchInts":           true,
	"sort.SearchFloat64s":       true,
	"slices.Sort":               true,
	"slices.SortFunc":           true,
	"slices.BinarySearch":       true,
	"errors.Is":                 true,
	"errors.As":                 true,
	"builtin.error.Error":       true,
	"time.Duration.Seconds":     true,
	"time.Duration.Nanoseconds": true,
	"hash/crc32.ChecksumIEEE":   true,
	// File I/O into a caller-owned buffer: the write path reuses the
	// fd's internals; error construction is the cold path.
	"os.File.WriteAt": true,
	"os.File.Sync":    true,
	// encoding/binary's fixed-width endian accessors are pure
	// shifts/ORs over the argument slice.
	"encoding/binary.littleEndian.Uint16":    true,
	"encoding/binary.littleEndian.Uint32":    true,
	"encoding/binary.littleEndian.Uint64":    true,
	"encoding/binary.littleEndian.PutUint16": true,
	"encoding/binary.littleEndian.PutUint32": true,
	"encoding/binary.littleEndian.PutUint64": true,
	"encoding/binary.bigEndian.Uint16":       true,
	"encoding/binary.bigEndian.Uint32":       true,
	"encoding/binary.bigEndian.Uint64":       true,
	"encoding/binary.bigEndian.PutUint16":    true,
	"encoding/binary.bigEndian.PutUint32":    true,
	"encoding/binary.bigEndian.PutUint64":    true,
}

// funcKey renders a *types.Func as the whitelist/facts vocabulary:
// "Fn" or "Type.Method" (package-relative).
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.Underlying().(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	switch t := rt.(type) {
	case *types.Named:
		return t.Obj().Name() + "." + fn.Name()
	case *types.Interface:
		return fn.Name()
	}
	return fn.Name()
}

func runNoalloc(pass *Pass) error {
	files := pass.sourceFiles()
	local := ExtractFacts(files)
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := FuncDirective(fn, "noalloc"); ok {
				checkNoalloc(pass, fn, local)
			}
		}
	}
	return nil
}

func checkNoalloc(pass *Pass, fn *ast.FuncDecl, local *PackageFacts) {
	name := fn.Name.Name
	report := func(pos token.Pos, what string) {
		if reason, ok := pass.LineDirective(pos, "alloc-ok"); ok {
			if reason == "" {
				pass.Reportf(pos, "netsamp:alloc-ok requires a reason")
			}
			return
		}
		pass.Reportf(pos, "%s in //netsamp:noalloc function %s; hoist it out of the hot path or annotate //netsamp:alloc-ok <reason>", what, name)
	}
	coldPaths := coldErrorBlocks(pass, fn.Body)
	inCold := func(pos token.Pos) bool {
		for _, b := range coldPaths {
			if b.Pos() <= pos && pos <= b.End() {
				return true
			}
		}
		return false
	}
	closures := localClosureVars(pass, fn.Body)
	// selfAppends are append calls of the form x = append(x, ...) — the
	// amortized in-place growth idiom — identified while visiting their
	// enclosing assignment (parents precede children in the walk).
	selfAppends := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltin(pass.Info, call, "append") || len(call.Args) == 0 {
					continue
				}
				if i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs) {
					// x = append(x, ...) and the buffer-reuse variant
					// x = append(x[:0], ...) both grow in place (amortized).
					dstExpr := ast.Unparen(call.Args[0])
					if se, ok := dstExpr.(*ast.SliceExpr); ok {
						dstExpr = se.X
					}
					dst := exprString(dstExpr)
					if dst != "" && exprString(n.Lhs[i]) == dst {
						selfAppends[call] = true
					}
				}
			}
		case *ast.CallExpr:
			switch {
			case isBuiltin(pass.Info, n, "make"):
				report(n.Pos(), "make")
			case isBuiltin(pass.Info, n, "new"):
				report(n.Pos(), "new")
			case isBuiltin(pass.Info, n, "append"):
				if !selfAppends[n] {
					report(n.Pos(), "append into a fresh backing array")
				}
			case pass.Info.Types[n.Fun].IsType():
				checkConversion(pass, n, report)
			case inCold(n.Pos()):
				// A failure exit: off the steady state.
			default:
				if what := uncheckedCallee(pass, n, local, closures); what != "" {
					report(n.Pos(), what)
				} else {
					checkImplicitBoxing(pass, n, report)
				}
			}
		case *ast.CompositeLit:
			t := pass.Info.Types[n].Type
			if t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					report(n.Pos(), "slice literal")
				case *types.Map:
					report(n.Pos(), "map literal")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal (escapes to the heap)")
				}
			}
		case *ast.FuncLit:
			// The literal's body runs on the hot path too, so the walk
			// descends into it.
			report(n.Pos(), "function literal (potential closure allocation)")
		case *ast.GoStmt:
			report(n.Pos(), "go statement (goroutine stack)")
		}
		return true
	})
}

// uncheckedCallee returns the finding for a call whose callee is not
// known to be allocation-free, or "" when the call rules accept it.
func uncheckedCallee(pass *Pass, call *ast.CallExpr, local *PackageFacts, closures map[types.Object]bool) string {
	callee, ok := calleeObject(pass.Info, call).(*types.Func)
	if !ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isB := pass.Info.Uses[id].(*types.Builtin); isB || closures[pass.Info.ObjectOf(id)] {
				return ""
			}
		}
		return "call through a function value (callee cannot be verified allocation-free)"
	}
	key := funcKey(callee)
	switch pkg := callee.Pkg(); {
	case pkg == nil:
		// Universe scope: error.Error via the predeclared interface.
		if noallocLeafFuncs["builtin."+key] {
			return ""
		}
		return "call to unresolvable " + key
	case pkg == pass.Pkg:
		if local.HasNoalloc(key) || interfaceCallCovered(pass, callee, local) {
			return ""
		}
		return "call to " + key + " which is not //netsamp:noalloc"
	default:
		path := pkg.Path()
		if noallocLeafPkgs[path] || noallocLeafFuncs[path+"."+key] || pass.DepFacts[path].HasNoalloc(key) {
			return ""
		}
		return "cross-package call to " + path + "." + key + " which is not //netsamp:noalloc there"
	}
}

// exprString renders simple assignable expressions (identifiers,
// selector chains, index expressions with simple indices) to a
// comparable string; "" for anything more complex.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprString(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := exprString(e.X)
		idx := exprString(e.Index)
		if base == "" || idx == "" {
			return ""
		}
		return base + "[" + idx + "]"
	case *ast.BasicLit:
		return e.Value
	}
	return ""
}

// checkConversion flags boxing and string/byte-slice conversions.
func checkConversion(pass *Pass, call *ast.CallExpr, report func(token.Pos, string)) {
	if len(call.Args) != 1 {
		return
	}
	to := pass.Info.Types[call.Fun].Type
	from := pass.Info.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	if types.IsInterface(to.Underlying()) && !types.IsInterface(from.Underlying()) {
		report(call.Pos(), "conversion to interface (boxes the operand)")
		return
	}
	toB, toOK := to.Underlying().(*types.Basic)
	fromS, fromSliceOK := from.Underlying().(*types.Slice)
	if toOK && toB.Kind() == types.String && fromSliceOK {
		if eb, ok := fromS.Elem().Underlying().(*types.Basic); ok && (eb.Kind() == types.Byte || eb.Kind() == types.Rune || eb.Kind() == types.Int32 || eb.Kind() == types.Uint8) {
			report(call.Pos(), "string(slice) conversion (copies)")
		}
		return
	}
	if toSlice, ok := to.Underlying().(*types.Slice); ok {
		if fb, ok := from.Underlying().(*types.Basic); ok && fb.Info()&types.IsString != 0 {
			if eb, ok := toSlice.Elem().Underlying().(*types.Basic); ok && (eb.Kind() == types.Byte || eb.Kind() == types.Uint8 || eb.Kind() == types.Rune || eb.Kind() == types.Int32) {
				report(call.Pos(), "[]byte/[]rune(string) conversion (copies)")
			}
		}
	}
}

// checkImplicitBoxing flags call arguments that box implicitly: a
// concrete value passed where the callee's signature declares an
// interface parameter is converted at the call site, and unless the
// value is pointer-shaped (pointer, map, channel, func — the interface
// data word holds it directly) the conversion allocates. The check is
// conservative: the runtime's small-integer and zero-size caches make
// some boxes free, but a hot path should not rely on them.
func checkImplicitBoxing(pass *Pass, call *ast.CallExpr, report func(token.Pos, string)) {
	sigT := pass.Info.Types[call.Fun].Type
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				// f(xs...) forwards the slice; nothing is boxed per element.
				return
			}
			pt = params.At(params.Len() - 1).Type()
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := pass.Info.Types[arg].Type
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		switch u := at.Underlying().(type) {
		case *types.Basic:
			if u.Kind() == types.UntypedNil {
				continue // nil interface, no box
			}
		case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
			continue // pointer-shaped: the data word is the value itself
		}
		report(arg.Pos(), "concrete value passed to interface parameter (boxes the argument)")
	}
}

// coldErrorBlocks collects if-bodies that end in a return statement or
// a panic — the failure exits a zero-alloc contract does not cover.
func coldErrorBlocks(pass *Pass, body *ast.BlockStmt) []*ast.BlockStmt {
	var cold []*ast.BlockStmt
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || len(ifs.Body.List) == 0 {
			return true
		}
		switch last := ifs.Body.List[len(ifs.Body.List)-1].(type) {
		case *ast.ReturnStmt:
			cold = append(cold, ifs.Body)
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(last.X).(*ast.CallExpr); ok && isBuiltin(pass.Info, call, "panic") {
				cold = append(cold, ifs.Body)
			}
		}
		return true
	})
	return cold
}

// localClosureVars collects body-local variables that are only ever
// assigned function literals: `mix := func(...) {...}` and never
// reassigned anything else. Calls through such a variable are safe to
// accept — every candidate body is a FuncLit inside the inspected
// function. A single non-literal assignment taints the variable.
func localClosureVars(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	assigned := make(map[types.Object]bool) // ever assigned a FuncLit
	tainted := make(map[types.Object]bool)  // assigned anything else
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); !ok || v.Pkg() != pass.Pkg {
			return
		}
		if _, isLit := ast.Unparen(rhs).(*ast.FuncLit); isLit {
			assigned[obj] = true
		} else {
			tainted[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i := range st.Lhs {
					mark(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(st.Names) == len(st.Values) {
				for i := range st.Names {
					mark(st.Names[i], st.Values[i])
				}
			}
		case *ast.UnaryExpr:
			// Taking the variable's address lets anyone rebind it.
			if st.Op == token.AND {
				if id, ok := ast.Unparen(st.X).(*ast.Ident); ok {
					if obj := pass.Info.ObjectOf(id); obj != nil {
						tainted[obj] = true
					}
				}
			}
		}
		return true
	})
	closures := make(map[types.Object]bool)
	for obj := range assigned {
		if !tainted[obj] {
			closures[obj] = true
		}
	}
	return closures
}

// interfaceCallCovered handles dynamic dispatch through an interface
// declared in this package: the call is allocation-free when the
// implementation set is closed over noalloc functions — every concrete
// package-level type implementing the interface declares the method
// noalloc-annotated, and at least one implementation exists to anchor
// the claim.
func interfaceCallCovered(pass *Pass, callee *types.Func, local *PackageFacts) bool {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	iface, ok := sig.Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	scope := pass.Pkg.Scope()
	impls := 0
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		var impl types.Type = named
		if !types.Implements(impl, iface) {
			impl = types.NewPointer(named)
			if !types.Implements(impl, iface) {
				continue
			}
		}
		impls++
		// Resolve the concrete method — possibly promoted from an
		// embedded type — and check its own key, so `type linear struct{
		// additive }` is covered by annotating additive's methods.
		mobj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pass.Pkg, callee.Name())
		m, ok := mobj.(*types.Func)
		if !ok {
			return false
		}
		key := funcKey(m)
		if m.Pkg() == pass.Pkg {
			if !local.HasNoalloc(key) {
				return false
			}
		} else if m.Pkg() == nil || !pass.DepFacts[m.Pkg().Path()].HasNoalloc(key) {
			return false
		}
	}
	return impls > 0
}
