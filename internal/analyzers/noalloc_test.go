package analyzers

import (
	"os"
	"path/filepath"
	"testing"
)

// TestNoallocGolden covers the construct rules (make/new, append,
// conversions, boxing, cold exits).
func TestNoallocGolden(t *testing.T) {
	runGolden(t, NoallocAnalyzer, "noalloc")
}

// TestNoallocFlowGolden covers the call rules: annotated callees,
// dependency facts, the leaf whitelist, interface sets and closures.
func TestNoallocFlowGolden(t *testing.T) {
	runGolden(t, NoallocAnalyzer, "noallocflow")
}

// typeCheckSource typechecks a single in-memory source file as package
// importPath, resolving imports through the shared testdata exports.
func typeCheckSource(t *testing.T, importPath, src string) *Package {
	t.Helper()
	path := filepath.Join(t.TempDir(), importPath+".go")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatalf("write source: %v", err)
	}
	pkg, err := TypeCheck(importPath, []string{path}, testExports(t))
	if err != nil {
		t.Fatalf("typecheck %s: %v", importPath, err)
	}
	return pkg
}

// TestNoallocFlowDepFacts exercises the cross-package path against
// injected facts: a callee annotated in a dependency's PackageFacts is
// accepted; the same call without facts, or with facts that lack the
// key, is a finding. (The golden package covers the same path with the
// real facts of netsamp/internal/engine.)
func TestNoallocFlowDepFacts(t *testing.T) {
	src := `package depfacts

import "math/rand"

//netsamp:noalloc
func draw(r *rand.Rand) float64 {
	return r.Float64()
}
`
	for _, tc := range []struct {
		name     string
		facts    map[string]*PackageFacts
		findings int
	}{
		{"annotated-in-dep", map[string]*PackageFacts{
			"math/rand": {Noalloc: []string{"Rand.Float64"}},
		}, 0},
		{"no-facts", nil, 1},
		{"facts-without-key", map[string]*PackageFacts{
			"math/rand": {Noalloc: []string{"Rand.Int63"}},
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pkg := typeCheckSource(t, "depfacts", src)
			var diags []Diagnostic
			pass := &Pass{
				Analyzer: NoallocAnalyzer,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				DepFacts: tc.facts,
				diags:    &diags,
			}
			if err := NoallocAnalyzer.Run(pass); err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(diags) != tc.findings {
				t.Fatalf("got %d findings, want %d: %v", len(diags), tc.findings, diags)
			}
		})
	}
}
