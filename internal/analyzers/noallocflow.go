package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoallocFlowAnalyzer closes the interprocedural hole the per-function
// noalloc check leaves open: a `//netsamp:noalloc` function whose own
// body is clean can still allocate through a callee. The rule it
// enforces turns the annotation set into a checked call graph — a
// noalloc function may only call:
//
//   - builtins (make/new/append are the intraprocedural check's job);
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
//     implementation set is closed).
//
// Calls through plain function values cannot be resolved statically and
// must carry `//netsamp:allocflow-ok <reason>`, as must any other call
// the rules above reject — with one resolvable exception: a local
// variable that is only ever assigned function literals defined in the
// same body (the `mix := func(...)` helper-closure idiom). Those
// literals are part of the body being inspected, so their calls are
// already checked; the variable itself adds no unverifiable edge.
// Calls inside cold error exits (an if-body ending in return or panic)
// are exempt, matching the intraprocedural check's steady-state
// contract.
var NoallocFlowAnalyzer = &Analyzer{
	Name: "noallocflow",
	Doc:  "check that //netsamp:noalloc functions only call noalloc-annotated or recognized-leaf functions",
	Run:  runNoallocFlow,
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
	"sync.Mutex.Lock":       true,
	"sync.Mutex.Unlock":     true,
	"sync.Mutex.TryLock":    true,
	"sync.RWMutex.Lock":     true,
	"sync.RWMutex.Unlock":   true,
	"sync.RWMutex.RLock":    true,
	"sync.RWMutex.RUnlock":  true,
	"sync.WaitGroup.Add":    true,
	"sync.WaitGroup.Done":   true,
	"sync.WaitGroup.Wait":   true,
	"sort.Search":           true,
	"sort.SearchInts":       true,
	"sort.SearchFloat64s":   true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.BinarySearch":   true,
	"errors.Is":             true,
	"errors.As":             true,
	"builtin.error.Error":   true,
	"time.Duration.Seconds": true,
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

func runNoallocFlow(pass *Pass) error {
	// Local annotation set, from syntax (same vocabulary as facts).
	local := make(map[string]bool)
	var annotated []*ast.FuncDecl
	for _, f := range pass.sourceFiles() {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if _, ok := FuncDirective(fn, "noalloc"); !ok {
				continue
			}
			key := fn.Name.Name
			if tn := recvTypeName(fn); tn != "" {
				key = tn + "." + fn.Name.Name
			}
			local[key] = true
			annotated = append(annotated, fn)
		}
	}
	for _, fn := range annotated {
		checkNoallocFlow(pass, fn, local)
	}
	return nil
}

func checkNoallocFlow(pass *Pass, fn *ast.FuncDecl, local map[string]bool) {
	name := fn.Name.Name
	report := func(pos token.Pos, what string) {
		if reason, ok := pass.LineDirective(pos, "allocflow-ok"); ok {
			if reason == "" {
				pass.Reportf(pos, "netsamp:allocflow-ok requires a reason")
			}
			return
		}
		pass.Reportf(pos, "%s in //netsamp:noalloc function %s; annotate the callee //netsamp:noalloc, whitelist it, or annotate the call //netsamp:allocflow-ok <reason>", what, name)
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
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if inCold(call.Pos()) {
			return true
		}
		// Conversions and builtins belong to the intraprocedural check.
		if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isB := pass.Info.Uses[id].(*types.Builtin); isB {
				return true
			}
		}
		obj := calleeObject(pass.Info, call)
		callee, ok := obj.(*types.Func)
		if !ok {
			// A body-local variable only ever assigned FuncLits is a
			// named closure: its body is inside fn.Body and already
			// being inspected, so the call adds no unverified edge.
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && closures[pass.Info.ObjectOf(id)] {
				return true
			}
			report(call.Pos(), "call through a function value (callee cannot be verified allocation-free)")
			return true
		}
		key := funcKey(callee)
		pkg := callee.Pkg()
		switch {
		case pkg == nil:
			// Universe-scope (error.Error via the predeclared interface).
			if !noallocLeafFuncs["builtin."+key] {
				report(call.Pos(), "call to unresolvable "+key)
			}
		case pkg == pass.Pkg:
			if local[key] || interfaceCallCovered(pass, callee, local) {
				return true
			}
			report(call.Pos(), "call to "+key+" which is not //netsamp:noalloc")
		default:
			path := pkg.Path()
			if noallocLeafPkgs[path] || noallocLeafFuncs[path+"."+key] {
				return true
			}
			if pass.DepFacts[path].HasNoalloc(key) {
				return true
			}
			report(call.Pos(), "cross-package call to "+path+"."+key+" which is not //netsamp:noalloc there")
		}
		return true
	})
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
func interfaceCallCovered(pass *Pass, callee *types.Func, local map[string]bool) bool {
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
			if !local[key] {
				return false
			}
		} else if m.Pkg() == nil || !pass.DepFacts[m.Pkg().Path()].HasNoalloc(key) {
			return false
		}
	}
	return impls > 0
}
