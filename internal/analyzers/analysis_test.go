package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// TestParseDirectiveReasons pins the untokenized-remainder contract:
// the argument string is everything after the directive name, verbatim,
// so reasons containing ':' or '=' survive intact.
func TestParseDirectiveReasons(t *testing.T) {
	cases := []struct {
		comment string
		ok      bool
		name    string
		args    string
	}{
		{"//netsamp:alloc-ok reused scratch", true, "alloc-ok", "reused scratch"},
		{"//netsamp:alloc-ok ratio = hits:misses, cap=64", true, "alloc-ok", "ratio = hits:misses, cap=64"},
		{"//netsamp:guarded-ok safe after Stop(): workers joined", true, "guarded-ok", "safe after Stop(): workers joined"},
		{"//netsamp:noalloc", true, "noalloc", ""},
		{"//netsamp:codec pair=decodePlan layout v2: keys=u32", true, "codec", "pair=decodePlan layout v2: keys=u32"},
		{"// netsamp:alloc-ok spaced prefix is not a directive", false, "", ""},
		{"// plain comment", false, "", ""},
	}
	for _, tc := range cases {
		name, args, ok := parseDirective(&ast.Comment{Text: tc.comment})
		if ok != tc.ok || name != tc.name || args != tc.args {
			t.Errorf("parseDirective(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.comment, name, args, ok, tc.name, tc.args, tc.ok)
		}
	}
}

// TestDirectiveArg pins the structured-first-token split: only the
// first whitespace token is structure, the rest is the reason.
func TestDirectiveArg(t *testing.T) {
	cases := []struct {
		args, first, reason string
	}{
		{"mu", "mu", ""},
		{"mu protects table: see DESIGN §7", "mu", "protects table: see DESIGN §7"},
		{"pair=decodePlan layout v2: keys=u32", "pair=decodePlan", "layout v2: keys=u32"},
		{"", "", ""},
	}
	for _, tc := range cases {
		first, reason := DirectiveArg(tc.args)
		if first != tc.first || reason != tc.reason {
			t.Errorf("DirectiveArg(%q) = (%q, %q), want (%q, %q)",
				tc.args, first, reason, tc.first, tc.reason)
		}
	}
}

// TestLineAndFuncDirectives exercises the two lookup paths end to end
// on parsed source, with reasons that would break under tokenization.
func TestLineAndFuncDirectives(t *testing.T) {
	src := `package d

//netsamp:codec pair=decode v2 layout: keys=u32
func encode() {
	x := 1 //netsamp:alloc-ok same-line reason with colon: fine
	//netsamp:nondeterministic-ok line-above reason, cap=8
	y := 2
	_ = x
	_ = y //netsamp:alloc-ok trailing directive annotates this line only
	z := 3
	_ = z
}

func decode() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, Files: []*ast.File{f}}

	enc := f.Decls[0].(*ast.FuncDecl)
	args, ok := FuncDirective(enc, "codec")
	if !ok || args != "pair=decode v2 layout: keys=u32" {
		t.Fatalf("FuncDirective(codec) = (%q, %v)", args, ok)
	}
	first, reason := DirectiveArg(args)
	if first != "pair=decode" || reason != "v2 layout: keys=u32" {
		t.Fatalf("DirectiveArg = (%q, %q)", first, reason)
	}

	body := enc.Body.List
	sameLine := body[0].Pos()
	if args, ok := pass.LineDirective(sameLine, "alloc-ok"); !ok || args != "same-line reason with colon: fine" {
		t.Fatalf("same-line LineDirective = (%q, %v)", args, ok)
	}
	lineAbove := body[1].Pos()
	if args, ok := pass.LineDirective(lineAbove, "nondeterministic-ok"); !ok || args != "line-above reason, cap=8" {
		t.Fatalf("line-above LineDirective = (%q, %v)", args, ok)
	}
	if _, ok := pass.LineDirective(body[2].Pos(), "alloc-ok"); ok {
		t.Fatal("directive leaked to an unannotated line")
	}
	// body[3] is `_ = y` with a trailing directive; body[4] (`z := 3`)
	// sits on the next line and must not inherit it — a directive
	// trailing code annotates only its own line.
	if _, ok := pass.LineDirective(body[3].Pos(), "alloc-ok"); !ok {
		t.Fatal("trailing directive not found on its own line")
	}
	if _, ok := pass.LineDirective(body[4].Pos(), "alloc-ok"); ok {
		t.Fatal("trailing directive on the line above leaked downward")
	}
}

// TestExtractFacts pins the facts vocabulary: plain functions by name,
// methods as Type.Method, sorted, test files included as parsed.
func TestExtractFacts(t *testing.T) {
	src := `package d

//netsamp:noalloc
func Zeta() {}

type T struct{}

//netsamp:noalloc
func (t *T) Method() {}

func plain() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "d.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	facts := ExtractFacts([]*ast.File{f})
	want := []string{"T.Method", "Zeta"}
	if !reflect.DeepEqual(facts.Noalloc, want) {
		t.Fatalf("Noalloc = %v, want %v", facts.Noalloc, want)
	}
	if !facts.HasNoalloc("T.Method") || facts.HasNoalloc("plain") {
		t.Fatal("HasNoalloc membership wrong")
	}
	var nilFacts *PackageFacts
	if nilFacts.HasNoalloc("anything") {
		t.Fatal("nil facts must report no members")
	}
}
