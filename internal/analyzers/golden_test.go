package analyzers

// The golden tests mirror golang.org/x/tools/go/analysis/analysistest:
// each analyzer runs over a small package under testdata/src/<name>/ in
// which every expected finding is marked by a `// want "regexp"` comment
// on the same line. A diagnostic with no matching want, or a want with
// no matching diagnostic, fails the test. Escape-hatch annotations and
// known would-be false positives are exercised as lines with no want.

import (
	"path/filepath"
	"regexp"
	"sync"
	"testing"
)

// testDeps are the import paths the testdata packages may use; their
// export data is resolved once per test binary through the same
// `go list -export` path the standalone driver uses.
var testDeps = []string{"fmt", "os", "time", "math/rand", "sync", "sync/atomic", "math", "errors", "context", "netsamp/internal/engine", "netsamp/internal/rng"}

var (
	exportsOnce sync.Once
	exportsMap  map[string]string
	exportsErr  error
)

func testExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		metas, err := goList(".", testDeps)
		if err != nil {
			exportsErr = err
			return
		}
		exportsMap = make(map[string]string, len(metas))
		for _, m := range metas {
			if m.Export != "" {
				exportsMap[m.ImportPath] = m.Export
			}
		}
	})
	if exportsErr != nil {
		t.Fatalf("loading export data for testdata imports: %v", exportsErr)
	}
	return exportsMap
}

// wantRe extracts the backtick-quoted regexps of a want comment
// (`// want` followed by one or more `...` patterns, as analysistest).
var wantRe = regexp.MustCompile("`([^`]*)`")

type wantKey struct {
	file string // base name
	line int
}

// runGolden typechecks testdata/src/<dir>, runs a over it (bypassing
// AppliesTo, as the package path is synthetic), and matches diagnostics
// against the want comments.
func runGolden(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata files for %s: %v", dir, err)
	}
	pkg, err := TypeCheck(dir, files, testExports(t))
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}

	var diags []Diagnostic
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		diags:    &diags,
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	// Collect expectations.
	type want struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := make(map[wantKey][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				const marker = "// want "
				if len(c.Text) < len(marker) || c.Text[:len(marker)] != marker {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := wantKey{filepath.Base(pos.Filename), pos.Line}
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[len(marker):], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", key.file, key.line, m[1], err)
					}
					wants[key] = append(wants[key], &want{re: re})
				}
			}
		}
	}

	for _, d := range diags {
		key := wantKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", key.file, key.line, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

// TestGoldenSuiteCovered pins the golden tests to the full suite: a new
// analyzer must bring a testdata package.
func TestGoldenSuiteCovered(t *testing.T) {
	for _, a := range All() {
		pattern := filepath.Join("testdata", "src", a.Name, "*.go")
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Errorf("analyzer %s has no golden testdata at %s", a.Name, pattern)
		}
	}
}
