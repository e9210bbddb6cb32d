package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ReplayCriticalPackages are the packages whose code runs inside the
// deterministic replay boundary: every decision they compute must be a
// pure function of (seed, interval, inputs), because crash recovery
// re-executes them and cross-checks the journal bit-for-bit (DESIGN §9).
var ReplayCriticalPackages = []string{
	"netsamp/internal/core",
	"netsamp/internal/control",
	"netsamp/internal/daemon",
	"netsamp/internal/state",
	"netsamp/internal/eval",
	"netsamp/internal/plan",
	"netsamp/internal/loadtrack",
	"netsamp/internal/faults",
	// netflow is inside the fence because its outputs feed replayed
	// decisions: flow-table sweeps, exporter listings, snapshots and
	// estimator bins must not inherit map iteration order. Its live-IO
	// edges (socket loops) carry explicit nondeterministic-ok
	// annotations.
	"netsamp/internal/netflow",
}

// IsReplayCritical reports whether pkgPath is inside the replay fence.
func IsReplayCritical(pkgPath string) bool {
	for _, p := range ReplayCriticalPackages {
		if pkgPath == p {
			return true
		}
	}
	return false
}

// DeterminismAnalyzer forbids the nondeterminism sources that break
// bit-identical replay in the replay-critical packages:
//
//   - wall-clock reads (time.Now, time.Since, time.Until);
//   - the process-global math/rand generators (package-level functions
//     draw from a shared, racy, unseedable-per-run source — all
//     randomness must flow through split-seeded rng.Source streams);
//   - map-range loops whose body feeds iteration-order-dependent
//     results outward (appends, calls, writes to outer variables,
//     float accumulation, returns using the iteration variables);
//   - `go` statements with no visible synchronization in the spawned
//     body (a channel operation or sync.* call) — a fire-and-forget
//     goroutine racing the decision path cannot be replayed;
//   - engine fan-out jobs that write shared state: a func literal passed
//     to engine.Map runs once per job index, concurrently with itself, so
//     assigning a variable it captures (=, op-assign, ++/--, any operand
//     of a multi-assign) or writing a captured map by key (m[k] = v,
//     delete) is a data race, while an indexed write into a captured
//     slice lands in the job's own slot and is fine; engine.Run runs each
//     literal once, so its captured writes race only when another job of
//     the same call uses the same variable.
//
// The escape hatch is `//netsamp:nondeterministic-ok <reason>` on (or
// immediately above) the flagged line; the reason is mandatory.
var DeterminismAnalyzer = &Analyzer{
	Name:      "determinism",
	Doc:       "forbid wall-clock, global rand, order-dependent map ranges and unsynchronized goroutines in replay-critical packages",
	AppliesTo: IsReplayCritical,
	Run:       runDeterminism,
}

// forbiddenTimeFuncs are the wall-clock reads that poison a replay.
var forbiddenTimeFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// allowedGlobalRand are the math/rand package-level constructors that
// build independent, explicitly seeded generators (fine) as opposed to
// drawing from the process-global source (not fine).
var allowedGlobalRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.sourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkForbiddenCall(pass, n)
				checkFanOut(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.GoStmt:
				checkGoStmt(pass, n)
			}
			return true
		})
	}
	return nil
}

// allowNondet reports whether the line is covered by a well-formed
// nondeterministic-ok directive; a directive without a reason is itself
// a finding.
func allowNondet(pass *Pass, pos token.Pos) bool {
	reason, ok := pass.LineDirective(pos, "nondeterministic-ok")
	if !ok {
		return false
	}
	if reason == "" {
		pass.Reportf(pos, "netsamp:nondeterministic-ok requires a reason")
		return true // annotated, if sloppily; the missing reason is the finding
	}
	return true
}

func checkForbiddenCall(pass *Pass, call *ast.CallExpr) {
	obj := calleeObject(pass.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] && !allowNondet(pass, call.Pos()) {
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock inside the replay fence; derive timing from the interval index or annotate //netsamp:nondeterministic-ok <reason>", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedGlobalRand[fn.Name()] && !allowNondet(pass, call.Pos()) {
			pass.Reportf(call.Pos(),
				"%s.%s draws from the process-global generator; use a split-seeded rng.Source or annotate //netsamp:nondeterministic-ok <reason>", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange flags map-range loops whose body is order-sensitive.
//
// Order-INsensitive (allowed) operations inside the body:
//   - assignments whose left side is an index expression (m[k] = v —
//     each iteration touches its own key-derived slot);
//   - integer/boolean compound updates of outer variables (count++,
//     sum += n for integer n, seen = true, flags |= bit): commutative
//     and associative, so iteration order cannot show;
//   - delete(m, k), len/cap, purely local computation, break/continue.
//
// Everything else that lets iteration order escape — append, calls
// whose arguments use the iteration variables, float accumulation,
// plain assignment of iteration-derived values to outer variables,
// returns, channel sends — is flagged.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.Info.Types[rng.X].Type
	if !isMapType(t) {
		return
	}
	if allowNondet(pass, rng.Pos()) {
		return
	}
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := definedObj(pass.Info, id); obj != nil {
				loopVars[obj] = true
			}
		}
	}
	body := rng.Body
	var report func(pos token.Pos, what string)
	reported := false
	report = func(pos token.Pos, what string) {
		if reported {
			return
		}
		reported = true
		pass.Reportf(pos, "map iteration order reaches %s; iterate sorted keys (topology.SortedKeys) or annotate //netsamp:nondeterministic-ok <reason>", what)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if reported {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(pass.Info, n, "len") || isBuiltin(pass.Info, n, "cap") ||
				isBuiltin(pass.Info, n, "delete") || isBuiltin(pass.Info, n, "append") {
				// append is handled via its enclosing assignment below;
				// delete/len/cap are order-insensitive.
				return true
			}
			for _, arg := range n.Args {
				if mentionsObjects(pass.Info, arg, loopVars) {
					report(n.Pos(), "a call argument")
					return false
				}
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, n, body, loopVars, report)
			if allKeyedWrites(pass, n) {
				// m[k] = f(k, v): the keyed slot absorbs the value, so
				// calls inside the right-hand side are order-free too.
				return false
			}
		case *ast.IncDecStmt:
			// count++ / count-- is commutative for integers; for floats
			// ±1 is still exact, so both are fine.
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsObjects(pass.Info, res, loopVars) {
					report(n.Pos(), "a return value (which entry returns first depends on order)")
					return false
				}
			}
		case *ast.SendStmt:
			report(n.Pos(), "a channel send")
			return false
		}
		return true
	})
}

// checkMapRangeAssign classifies one assignment inside a map-range body.
func checkMapRangeAssign(pass *Pass, as *ast.AssignStmt, body *ast.BlockStmt, loopVars map[types.Object]bool, report func(token.Pos, string)) {
	for i, lhs := range as.Lhs {
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		// Appending inside a map range materializes the iteration order.
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(pass.Info, call, "append") {
			report(as.Pos(), "an append (the slice materializes iteration order)")
			return
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			// m[k] = v: keyed writes land on key-determined slots.
			continue
		case *ast.Ident:
			obj := pass.Info.Uses[l]
			if obj == nil {
				obj = pass.Info.Defs[l]
			}
			if obj == nil || declaredWithin(pass, obj, body) {
				continue // local to the loop body
			}
			if !mentionsObjects(pass.Info, rhs, loopVars) && as.Tok == token.ASSIGN && isOrderFreeLiteral(rhs) {
				continue // seen = true and friends
			}
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
				t := obj.Type()
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					continue // integer accumulation is exact and commutative
				}
				report(as.Pos(), "a non-integer accumulation (float addition is not associative)")
				return
			case token.ASSIGN, token.DEFINE:
				if mentionsObjects(pass.Info, rhs, loopVars) {
					report(as.Pos(), "an outer variable (which entry wins depends on order)")
					return
				}
				continue
			default:
				report(as.Pos(), "an outer variable")
				return
			}
		default:
			// Selector/star assignments to outer state.
			if mentionsObjects(pass.Info, rhs, loopVars) || mentionsObjects(pass.Info, lhs, loopVars) {
				report(as.Pos(), "outer state")
				return
			}
		}
	}
}

// allKeyedWrites reports whether every left-hand side of as is an index
// expression and no right-hand side is an append: such an assignment
// lands each iteration's value in its own key-determined slot, so the
// whole statement (calls included) is order-insensitive.
func allKeyedWrites(pass *Pass, as *ast.AssignStmt) bool {
	for _, lhs := range as.Lhs {
		if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); !ok {
			return false
		}
	}
	for _, rhs := range as.Rhs {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && isBuiltin(pass.Info, call, "append") {
			return false
		}
	}
	return true
}

// isOrderFreeLiteral reports whether e is a constant literal/identifier
// whose assignment is idempotent across iterations (true, 0, "x").
func isOrderFreeLiteral(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return e.Name == "true" || e.Name == "false" || e.Name == "nil"
	}
	return false
}

// declaredWithin reports whether obj's declaration lies inside node.
func declaredWithin(pass *Pass, obj types.Object, node ast.Node) bool {
	return obj.Pos() != token.NoPos && node.Pos() <= obj.Pos() && obj.Pos() <= node.End()
}

// checkGoStmt flags goroutines with no visible synchronization: a
// spawned body that neither touches a channel nor calls into sync is
// invisible to the replay — whatever it computes races the decision
// sequence.
func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	if allowNondet(pass, g.Pos()) {
		return
	}
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		// A goroutine launched on a named function: its body is out of
		// scope here, so demand the annotation.
		pass.Reportf(g.Pos(), "goroutine with out-of-line body inside the replay fence; annotate //netsamp:nondeterministic-ok <reason> after verifying its synchronization")
		return
	}
	synced := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if synced {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			synced = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				synced = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.Types[n.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					synced = true
				}
			}
		case *ast.CallExpr:
			if obj := calleeObject(pass.Info, n); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				synced = true
			}
		}
		return true
	})
	if !synced {
		pass.Reportf(g.Pos(), "unsynchronized goroutine inside the replay fence (no channel operation or sync call in its body); annotate //netsamp:nondeterministic-ok <reason> if the race is provably benign")
	}
}

// checkFanOut flags the shared-state writes of the func literals passed
// to engine.Map and engine.Run (see DeterminismAnalyzer).
func checkFanOut(pass *Pass, call *ast.CallExpr) {
	var kind string
	for _, name := range []string{"Map", "Run"} {
		if isPkgFunc(pass.Info, call, "netsamp/internal/engine", name) {
			kind = name
		}
	}
	if kind == "" {
		return
	}
	var lits []*ast.FuncLit
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
	}
	for i, lit := range lits {
		for _, w := range capturedWrites(pass, lit) {
			if kind == "Run" && !usedByOther(pass, lits, i, w.obj) {
				continue
			}
			if allowNondet(pass, w.pos) {
				continue
			}
			switch {
			case w.isMap:
				pass.Reportf(w.pos, "engine.%s job writes captured map %s by key: concurrent jobs race on it; build the map inside the job or merge per-job results after the fan-out", kind, w.obj.Name())
			case kind == "Map":
				pass.Reportf(w.pos, "engine.Map job assigns captured variable %s: concurrent jobs race on it; declare it inside the job or write the job's own slot", w.obj.Name())
			default:
				pass.Reportf(w.pos, "engine.Run job assigns captured variable %s, which another job of the same call also uses: they race", w.obj.Name())
			}
		}
	}
}

// sharedWrite is one write, inside a fan-out literal, to a variable
// declared outside it.
type sharedWrite struct {
	pos   token.Pos
	obj   types.Object
	isMap bool // a keyed map write or delete rather than an assignment
}

// capturedWrites lists lit's writes to variables declared outside it:
// assignments (other than :=, which declares) and ++/-- of a captured
// variable, and keyed writes and deletes on a captured map. Indexed
// writes into slices and arrays are not listed.
func capturedWrites(pass *Pass, lit *ast.FuncLit) []sharedWrite {
	var out []sharedWrite
	outer := func(e ast.Expr) types.Object {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				obj, ok := pass.Info.Uses[x].(*types.Var)
				if !ok || declaredWithin(pass, obj, lit) {
					return nil
				}
				return obj
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return nil
			}
		}
	}
	write := func(pos token.Pos, lhs ast.Expr) {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if obj := outer(l); obj != nil {
				out = append(out, sharedWrite{pos: pos, obj: obj})
			}
		case *ast.IndexExpr:
			if isMapType(pass.Info.Types[l.X].Type) {
				if obj := outer(l.X); obj != nil {
					out = append(out, sharedWrite{pos: pos, obj: obj, isMap: true})
				}
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					write(n.Pos(), lhs)
				}
			}
		case *ast.IncDecStmt:
			write(n.Pos(), n.X)
		case *ast.CallExpr:
			if isBuiltin(pass.Info, n, "delete") && len(n.Args) == 2 {
				if obj := outer(n.Args[0]); obj != nil {
					out = append(out, sharedWrite{pos: n.Pos(), obj: obj, isMap: true})
				}
			}
		}
		return true
	})
	return out
}

// usedByOther reports whether any literal but lits[i] mentions obj.
func usedByOther(pass *Pass, lits []*ast.FuncLit, i int, obj types.Object) bool {
	for j, lit := range lits {
		if j != i && mentionsObjects(pass.Info, lit.Body, map[types.Object]bool{obj: true}) {
			return true
		}
	}
	return false
}
