// Package analyzers is netsamp's static-analysis suite: nine custom
// analyzers that mechanically enforce the invariants the repo's
// correctness story rests on — deterministic replay, zero-allocation
// hot paths, lock and atomic-access discipline, context hygiene,
// encode/decode symmetry and versioning of the persistence codec, exact
// float comparison discipline, and sticky-error hygiene.
//
// The suite is built on a small stdlib-only framework that mirrors the
// golang.org/x/tools/go/analysis API (Analyzer, Pass, Diagnostic). The
// container this repo builds in has no module proxy access, so the
// x/tools dependency is deliberately not used; the framework below is
// the subset the suite needs, typechecking packages against the
// compiler's export data (see load.go) exactly as a vet tool would.
//
// Annotation grammar (machine-readable comments, all prefixed
// //netsamp: with no space after //):
//
//	//netsamp:noalloc
//	    On a function's doc comment: the function body is checked for
//	    allocating constructs and may only call functions known to be
//	    allocation-free (the alloc-pinning benchmarks remain the
//	    end-to-end guard).
//	//netsamp:nondeterministic-ok <reason>
//	    On or immediately above a flagged line: suppresses a
//	    determinism finding. The reason is mandatory.
//	//netsamp:alloc-ok <reason>
//	    On or immediately above a flagged line inside a noalloc
//	    function: suppresses an allocation finding (e.g. a provably
//	    non-escaping closure, or a call whose callee is not annotated
//	    but is known allocation-free).
//	//netsamp:floateq-ok <reason>
//	    On or immediately above a float ==/!=: marks the comparison as
//	    an intentional exact fixed-point/bit-pattern comparison.
//	//netsamp:err-ok <reason>
//	    On or immediately above a discarded error: marks the discard as
//	    deliberate best-effort.
//	//netsamp:codec pair=<decodeFunc> [reason]
//	    On an encode function's doc comment: names the decode function
//	    (same package) whose read sequence must mirror the writes.
//	//netsamp:codec-ignore <field>[,<field>...] [reason]
//	    On a MarshalBinary doc comment: struct fields deliberately
//	    excluded from the encoding.
//	//netsamp:guardedby <mu> [reason]
//	    On a struct field declaration: the field may be read or written
//	    only while <mu> (a sibling mutex field) is held — the access
//	    site's enclosing function must lock <mu> first, carry a
//	    //netsamp:holds <mu> contract, or be a constructor (name
//	    beginning new/New).
//	//netsamp:holds <mu> [reason]
//	    On a function's doc comment: the caller-holds-lock contract.
//	    Accesses to <mu>-guarded fields inside the function are allowed,
//	    and every call of the function is itself checked for the lock.
//	//netsamp:guarded-ok <reason>
//	    On or immediately above a guarded-field access: suppresses a
//	    guardedby finding (e.g. a read after all writers joined).
//	//netsamp:atomic-ok <reason>
//	    On or immediately above a plain access to an atomically-accessed
//	    field: marks the mixed access as provably race-free.
//	//netsamp:ctx-ok <reason>
//	    On or immediately above a goroutine launch, in-loop sleep or
//	    blocking channel send: cancellation is handled by other means
//	    (e.g. closing the socket the loop reads).
//
// Every directive that takes a structured first argument (codec pair=,
// codec-ignore's field list, guardedby's and holds' mutex name) treats
// only the first whitespace-separated token as structure; the remainder
// of the line is an uninterpreted free-text reason, so reasons may
// contain ':', '=' or anything else.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, mirroring the x/tools analysis.Analyzer
// shape so the suite could migrate to the real framework wholesale.
type Analyzer struct {
	Name string
	Doc  string
	// AppliesTo, when non-nil, restricts the analyzer to packages whose
	// import path it accepts; drivers consult it before running. Tests
	// invoke analyzers directly and bypass the filter.
	AppliesTo func(pkgPath string) bool
	Run       func(*Pass) error
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one analyzer run over one typechecked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// DepFacts maps import paths to the syntax-derived facts of every
	// package the driver has visited (the analyzed package's module-local
	// dependency closure, plus itself). Nil entries and missing paths
	// mean "no facts" — interprocedural checks must degrade to demanding
	// a call-site annotation, never to silently passing.
	DepFacts map[string]*PackageFacts

	diags *[]Diagnostic
	// lineComments maps file → line → the comments whose text starts on
	// that line, for directive lookup.
	lineComments map[*ast.File]map[int][]*ast.Comment
	// codeLines maps file → lines containing non-comment tokens. A
	// directive on such a line annotates that line only — it never
	// doubles as the "line above" annotation of the next line, so a
	// trailing directive on one struct field cannot leak to the field
	// below it.
	codeLines map[*ast.File]map[int]bool
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directivePrefix is the comment prefix of every netsamp annotation.
const directivePrefix = "//netsamp:"

// parseDirective splits a comment into (name, args) if it is a netsamp
// directive, e.g. "//netsamp:alloc-ok reused scratch" →
// ("alloc-ok", "reused scratch"). args is the untokenized remainder of
// the line: for reason-only directives it IS the reason, verbatim, so
// reasons containing ':' or '=' survive intact.
func parseDirective(c *ast.Comment) (name, args string, ok bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, args, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(name), strings.TrimSpace(args), true
}

// DirectiveArg splits a directive's argument string into its structured
// first token and the free-text remainder (the reason). Directives whose
// grammar is `<token> [reason]` — codec pair=, guardedby, holds,
// codec-ignore — must parse through this so the reason is never
// tokenized further.
func DirectiveArg(args string) (first, reason string) {
	first, reason, _ = strings.Cut(args, " ")
	return strings.TrimSpace(first), strings.TrimSpace(reason)
}

func (p *Pass) buildLineComments() {
	if p.lineComments != nil {
		return
	}
	p.lineComments = make(map[*ast.File]map[int][]*ast.Comment, len(p.Files))
	p.codeLines = make(map[*ast.File]map[int]bool, len(p.Files))
	for _, f := range p.Files {
		m := make(map[int][]*ast.Comment)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				line := p.Fset.Position(c.Pos()).Line
				m[line] = append(m[line], c)
			}
		}
		p.lineComments[f] = m
		code := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n.(type) {
			case nil, *ast.Comment, *ast.CommentGroup:
				return true
			}
			code[p.Fset.Position(n.Pos()).Line] = true
			code[p.Fset.Position(n.End()).Line] = true
			return true
		})
		p.codeLines[f] = code
	}
}

// fileOf returns the *ast.File containing pos.
func (p *Pass) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// LineDirective reports whether a directive named name annotates the
// line of pos or the line immediately above it, returning its argument
// string. Directives with a mandatory reason must check args != "".
func (p *Pass) LineDirective(pos token.Pos, name string) (args string, ok bool) {
	p.buildLineComments()
	f := p.fileOf(pos)
	if f == nil {
		return "", false
	}
	line := p.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		// A directive trailing code on the line above annotates that
		// line, not this one (field-list leakage otherwise).
		if l == line-1 && p.codeLines[f][l] {
			continue
		}
		for _, c := range p.lineComments[f][l] {
			if n, a, isDir := parseDirective(c); isDir && n == name {
				return a, true
			}
		}
	}
	return "", false
}

// FuncDirective reports whether fn's doc comment carries a directive
// named name, returning its argument string.
func FuncDirective(fn *ast.FuncDecl, name string) (args string, ok bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		if n, a, isDir := parseDirective(c); isDir && n == name {
			return a, true
		}
	}
	return "", false
}

// isTestFile reports whether the file's name ends in _test.go; the
// analyzers skip test files (the bitwise replay tests compare floats
// with == on purpose, and test helpers allocate freely).
func (p *Pass) isTestFile(f *ast.File) bool {
	name := p.Fset.Position(f.Package).Filename
	return strings.HasSuffix(name, "_test.go")
}

// sourceFiles returns the non-test files of the pass.
func (p *Pass) sourceFiles() []*ast.File {
	out := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		if !p.isTestFile(f) {
			out = append(out, f)
		}
	}
	return out
}

// RunAnalyzers applies every analyzer (honoring AppliesTo) to every
// package and returns the findings sorted by position. Facts-only
// packages (module-local dependencies outside the requested patterns)
// contribute their PackageFacts to every pass but are not themselves
// analyzed.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	depFacts := make(map[string]*PackageFacts, len(pkgs))
	for _, pkg := range pkgs {
		if pkg.Facts == nil {
			pkg.Facts = ExtractFacts(pkg.Files)
		}
		depFacts[pkg.Path] = pkg.Facts
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.FactsOnly {
			continue
		}
		for _, a := range analyzers {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				DepFacts: depFacts,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		NoallocAnalyzer,
		AtomicFieldAnalyzer,
		GuardedByAnalyzer,
		CtxHygieneAnalyzer,
		CodecPairAnalyzer,
		CodecVerAnalyzer,
		FloatCmpAnalyzer,
		StickyErrAnalyzer,
	}
}

// PackageFacts are the syntax-derived facts one package exports to its
// dependents. They cross package boundaries where full type information
// does not: the standalone driver extracts them from every module-local
// package it lists, and the vettool protocol persists them in the
// per-package .vetx files the go command threads between invocations.
type PackageFacts struct {
	// Noalloc lists the functions annotated //netsamp:noalloc, as "Fn"
	// for package-level functions and "Type.Method" for methods — the
	// vocabulary noalloc resolves cross-package callees against.
	Noalloc []string `json:"noalloc,omitempty"`
}

// HasNoalloc reports whether the facts record key ("Fn" or
// "Type.Method") as a noalloc-annotated function.
func (f *PackageFacts) HasNoalloc(key string) bool {
	if f == nil {
		return false
	}
	for _, k := range f.Noalloc {
		if k == key {
			return true
		}
	}
	return false
}

// ExtractFacts scans parsed files — syntax only, no type information —
// for the facts dependent packages need. It must stay syntax-only: the
// vettool extracts facts from dependency packages it never typechecks.
func ExtractFacts(files []*ast.File) *PackageFacts {
	facts := &PackageFacts{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := FuncDirective(fn, "noalloc"); !ok {
				continue
			}
			key := fn.Name.Name
			if tn := recvTypeName(fn); tn != "" {
				key = tn + "." + fn.Name.Name
			}
			facts.Noalloc = append(facts.Noalloc, key)
		}
	}
	sort.Strings(facts.Noalloc)
	return facts
}
