package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CodecPairAnalyzer checks encode/decode symmetry of the state codec.
// Every persisted structure is written through state.Encoder and read
// back through the sticky state.Decoder; the daemon's divergence check
// (and therefore the whole deterministic-recovery guarantee) assumes
// the two sides agree on field order and width. A decode that drops a
// field, reads it at the wrong width, or reads it out of order shifts
// every subsequent byte and typically still "succeeds" — producing a
// plausible-looking, wrong state.
//
// The analyzer pairs:
//
//   - MarshalBinary/UnmarshalBinary methods declared on the same type;
//   - any function annotated `//netsamp:codec pair=<decodeFunc>` with
//     the named function in the same package.
//
// For each pair it extracts the flattened, source-ordered sequence of
// codec operations (Encoder writes vs Decoder reads, loops and
// conditionals contributing their bodies once) and demands the widths
// line up position by position; Bool/U8 are interchangeable at width 1,
// U32/Len at width 4, and U64/I64 at width 8, while F64 stays distinct
// from I64/U64 because an integer read of a float field is virtually
// always an encode/decode drift, not an intended bit-pattern pun.
//
// MarshalBinary pairs additionally require (a) the first write to be a
// version stamp (an argument mentioning an identifier containing
// "version") — adding a field without bumping the version is how a new
// binary silently misparses old checkpoints — and (b) every field of
// the marshalled struct to be referenced by both sides, with
// `//netsamp:codec-ignore f1,f2` opting specific fields out.
var CodecPairAnalyzer = &Analyzer{
	Name: "codecpair",
	Doc:  "check encode/decode symmetry, width agreement, version stamps and field coverage of state codec pairs",
	Run:  runCodecPair,
}

// codecOp is one primitive codec read or write.
type codecOp struct {
	method string // Encoder/Decoder method name as written
	class  string // width class: u8, u16, u32, u64, f64, bytes
	pos    token.Pos
	call   *ast.CallExpr
}

// opClasses maps Encoder/Decoder method names to width classes.
var opClasses = map[string]string{
	"U8": "u8", "Bool": "u8",
	"U16": "u16",
	"U32": "u32", "Len": "u32",
	"U64": "u64", "I64": "u64",
	"F64":   "f64",
	"Bytes": "bytes",
}

// isCodecType reports whether t is a state codec endpoint of the given
// role ("Encoder" or "Decoder"), matched on shape: the name plus the
// width-method set.
func isCodecType(t types.Type, role string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != role {
		return false
	}
	have := map[string]bool{}
	for i := 0; i < named.NumMethods(); i++ {
		have[named.Method(i).Name()] = true
	}
	return have["U16"] && have["U64"] && have["F64"]
}

func runCodecPair(pass *Pass) error {
	funcs := make(map[string]*ast.FuncDecl)   // plain functions by name
	methods := make(map[string]*ast.FuncDecl) // methods by Type.Name key
	for _, f := range pass.sourceFiles() {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Recv == nil {
				funcs[fn.Name.Name] = fn
			} else if tn := recvTypeName(fn); tn != "" {
				methods[tn+"."+fn.Name.Name] = fn
			}
		}
	}

	seen := make(map[*ast.FuncDecl]bool)
	// Marshal/Unmarshal pairs by receiver type.
	for key, enc := range methods {
		tn, name, _ := strings.Cut(key, ".")
		if name != "MarshalBinary" {
			continue
		}
		encOps := collectOps(pass, enc, "Encoder")
		if len(encOps) == 0 {
			continue // not a state-codec marshaller
		}
		dec, ok := methods[tn+".UnmarshalBinary"]
		if !ok {
			pass.Reportf(enc.Pos(), "%s has MarshalBinary but no UnmarshalBinary: every persisted encoding needs its paired decode", tn)
			continue
		}
		seen[enc], seen[dec] = true, true
		decOps := collectOps(pass, dec, "Decoder")
		compareOps(pass, tn, enc, dec, encOps, decOps)
		checkVersionStamp(pass, tn, enc, encOps)
		checkFieldCoverage(pass, tn, enc, dec)
	}
	// Annotation-declared pairs.
	for _, fns := range []map[string]*ast.FuncDecl{funcs, methods} {
		for _, enc := range fns {
			arg, ok := FuncDirective(enc, "codec")
			if !ok || seen[enc] {
				continue
			}
			first, _ := DirectiveArg(arg)
			pairName, found := strings.CutPrefix(first, "pair=")
			if !found || pairName == "" {
				pass.Reportf(enc.Pos(), "netsamp:codec directive requires pair=<decodeFunc>")
				continue
			}
			dec := funcs[pairName]
			if dec == nil {
				// Methods may be named Type.Method in the directive.
				dec = methods[pairName]
			}
			if dec == nil {
				for key, m := range methods {
					if strings.HasSuffix(key, "."+pairName) {
						dec = m
						break
					}
				}
			}
			if dec == nil {
				pass.Reportf(enc.Pos(), "netsamp:codec pair=%s: no such function in this package", pairName)
				continue
			}
			encOps := collectOps(pass, enc, "Encoder")
			decOps := collectOps(pass, dec, "Decoder")
			compareOps(pass, enc.Name.Name, enc, dec, encOps, decOps)
			checkVersionStamp(pass, enc.Name.Name, enc, encOps)
		}
	}
	return nil
}

// recvTypeName returns the bare receiver type name of a method.
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// collectOps extracts the source-ordered codec operations of role
// ("Encoder" writes or "Decoder" reads) in fn's body.
func collectOps(pass *Pass, fn *ast.FuncDecl, role string) []codecOp {
	var ops []codecOp
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		class, isOp := opClasses[sel.Sel.Name]
		if !isOp {
			return true
		}
		recv := pass.Info.Types[sel.X]
		if !isCodecType(recv.Type, role) {
			return true
		}
		ops = append(ops, codecOp{method: sel.Sel.Name, class: class, pos: call.Pos(), call: call})
		return true
	})
	return ops
}

// compareOps demands the flattened op sequences agree class by class.
func compareOps(pass *Pass, what string, enc, dec *ast.FuncDecl, encOps, decOps []codecOp) {
	n := len(encOps)
	if len(decOps) < n {
		n = len(decOps)
	}
	for i := 0; i < n; i++ {
		if encOps[i].class != decOps[i].class {
			pass.Reportf(decOps[i].pos,
				"%s codec drift at operation %d: encode writes %s (%s) but decode reads %s (%s) — every later field shifts",
				what, i+1, encOps[i].method, encOps[i].class, decOps[i].method, decOps[i].class)
			return
		}
	}
	if len(encOps) != len(decOps) {
		if len(encOps) > len(decOps) {
			missing := encOps[len(decOps)]
			pass.Reportf(missing.pos,
				"%s codec drift: encode writes %d operations but decode reads only %d — the %s write at operation %d is never decoded",
				what, len(encOps), len(decOps), missing.method, len(decOps)+1)
		} else {
			extra := decOps[len(encOps)]
			pass.Reportf(extra.pos,
				"%s codec drift: decode reads %d operations but encode writes only %d — the %s read at operation %d consumes bytes that were never written",
				what, len(decOps), len(encOps), extra.method, len(encOps)+1)
		}
	}
}

// checkVersionStamp demands the encoding opens with a version stamp.
func checkVersionStamp(pass *Pass, what string, enc *ast.FuncDecl, encOps []codecOp) {
	if len(encOps) == 0 {
		return
	}
	first := encOps[0]
	ok := false
	for _, arg := range first.call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, isIdent := n.(*ast.Ident); isIdent {
				lower := strings.ToLower(id.Name)
				if strings.Contains(lower, "version") || strings.Contains(lower, "magic") {
					ok = true
				}
			}
			return !ok
		})
	}
	if !ok {
		pass.Reportf(first.pos,
			"%s encoding does not open with a version stamp: write a <name>Version constant first so a struct change can bump it and old payloads are rejected, not misparsed", what)
	}
}

// checkFieldCoverage demands every field of the marshalled struct be
// referenced by both the encode and the decode side.
func checkFieldCoverage(pass *Pass, typeName string, enc, dec *ast.FuncDecl) {
	obj := pass.Pkg.Scope().Lookup(typeName)
	if obj == nil {
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	ignored := map[string]bool{}
	if arg, ok := FuncDirective(enc, "codec-ignore"); ok {
		fields, _ := DirectiveArg(arg)
		for _, f := range strings.Split(fields, ",") {
			ignored[strings.TrimSpace(f)] = true
		}
	}
	for _, side := range []struct {
		fn   *ast.FuncDecl
		verb string
	}{{enc, "encoded"}, {dec, "decoded"}} {
		referenced := fieldRefs(pass, side.fn, obj.Type())
		var missing []string
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if ignored[f.Name()] || referenced[f.Name()] {
				continue
			}
			missing = append(missing, f.Name())
		}
		if len(missing) > 0 {
			pass.Reportf(side.fn.Pos(),
				"%s field(s) %s never %s: encode them (and bump the version constant) or list them in //netsamp:codec-ignore",
				typeName, strings.Join(missing, ", "), side.verb)
		}
	}
}

// fieldRefs collects the names of T's fields selected anywhere in fn.
func fieldRefs(pass *Pass, fn *ast.FuncDecl, t types.Type) map[string]bool {
	refs := make(map[string]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := pass.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		recv := s.Recv()
		if ptr, ok := recv.Underlying().(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if types.Identical(recv, t) {
			refs[sel.Sel.Name] = true
		}
		return true
	})
	return refs
}
