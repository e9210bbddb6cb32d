// Command netsamplint is netsamp's multichecker: it runs the
// internal/analyzers suite (determinism, noalloc, atomicfield,
// guardedby, ctxhygiene, codecpair, codecver, floatcmp, stickyerr) over
// Go packages and reports invariant violations.
//
// Two modes share the same analyzers and type information:
//
//	netsamplint [-json] [-write-codec-fingerprints] [packages...]
//	    Standalone: loads the named packages (default ./...) through
//	    `go list -export`, analyzes them, prints findings, exits 2 when
//	    any are found. -json emits the LINT_BASELINE.json format.
//	    -write-codec-fingerprints regenerates CODEC_FINGERPRINTS.json
//	    at the module root before analyzing.
//
//	go vet -vettool=$(which netsamplint) ./...
//	    Vet tool: the go command invokes the binary once per package
//	    with a JSON config file (the unitchecker protocol: -V=full for
//	    the tool's version fingerprint, -flags for its flag set, then
//	    <pkg>.cfg), and netsamplint typechecks from the supplied export
//	    data and analyzes just that package. Each visit writes the
//	    package's //netsamp: facts (noalloc annotations) to its .vetx
//	    file; dependency facts arrive back through PackageVetx, which is
//	    how noalloc's call rules see across package boundaries under
//	    vet.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"netsamp/internal/analyzers"
)

func main() {
	// The go command probes vet tools before use: -V=full must print a
	// version fingerprint, -flags the supported analyzer flags.
	if len(os.Args) == 2 && os.Args[1] == "-V=full" {
		printVersion()
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitcheck(os.Args[1]))
	}

	jsonOut := flag.Bool("json", false, "emit findings as JSON (the committed baseline format)")
	writeFP := flag.Bool("write-codec-fingerprints", false,
		"regenerate "+analyzers.CodecFingerprintFile+" at the module root from the loaded packages, then analyze")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: netsamplint [-json] [-write-codec-fingerprints] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(standalone(os.Stdout, patterns, *jsonOut, *writeFP))
}

// printVersion emits the fingerprint line the go command caches vet
// results under; it must change whenever the binary changes, so it
// hashes the executable.
func printVersion() {
	h := sha256.New()
	if f, err := os.Open(os.Args[0]); err == nil {
		io.Copy(h, f) //nolint:errcheck // a partial hash only weakens caching
		f.Close()
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", os.Args[0], h.Sum(nil)[:8])
}

// baseline is the LINT_BASELINE.json schema: the committed artifact
// future PRs diff their own run against.
type baseline struct {
	Tool      string                 `json:"tool"`
	Analyzers []string               `json:"analyzers"`
	Packages  int                    `json:"packages_analyzed"`
	Findings  []analyzers.Diagnostic `json:"findings"`
}

// standalone runs the suite over patterns, writing findings to stdout
// (the baseline JSON with jsonOut), and returns the exit code: 2 when
// anything was found.
func standalone(stdout io.Writer, patterns []string, jsonOut, writeFP bool) int {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := analyzers.LoadPackages(dir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// packages_analyzed counts analyzed packages only; facts-only
	// dependency packages feed the interprocedural checks but are not
	// analysis targets.
	analyzed := 0
	for _, p := range pkgs {
		if !p.FactsOnly {
			analyzed++
		}
	}
	if writeFP {
		root := moduleRoot(dir)
		if root == "" {
			fmt.Fprintln(os.Stderr, "netsamplint: no go.mod above", dir)
			return 1
		}
		ledger := make(map[string]analyzers.CodecFingerprint)
		for _, p := range pkgs {
			for k, v := range analyzers.CodecFingerprintsForPackage(p) {
				ledger[k] = v
			}
		}
		path := filepath.Join(root, analyzers.CodecFingerprintFile)
		if err := analyzers.WriteCodecFingerprints(path, ledger); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "netsamplint: wrote %d fingerprint(s) to %s\n", len(ledger), path)
	}
	suite := analyzers.All()
	diags, err := analyzers.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if jsonOut {
		if diags == nil {
			diags = []analyzers.Diagnostic{} // a clean run baselines as [], not null
		}
		names := make([]string, len(suite))
		for i, a := range suite {
			names[i] = a.Name
		}
		out, err := json.MarshalIndent(baseline{
			Tool:      "netsamplint",
			Analyzers: names,
			Packages:  analyzed,
			Findings:  diags,
		}, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "netsamplint: %d finding(s)\n", len(diags))
		}
		return 2
	}
	return 0
}

// vetConfig is the JSON the go command writes for a vet tool (the
// unitchecker protocol's per-package config). PackageVetx maps each
// dependency's import path to the facts file a previous visit wrote —
// the channel through which //netsamp:noalloc annotations cross
// package boundaries under vet.
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	ImportMap    map[string]string
	PackageFile  map[string]string
	PackageVetx  map[string]string
	VetxOnly     bool
	VetxOutput   string
	Standard     map[string]bool
	GoVersion    string
	NonGoFiles   []string
	IgnoredFiles []string

	SucceedOnTypecheckFailure bool
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) string {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// nonTestFiles drops _test.go files: the invariants govern shipped
// code, and the bitwise replay tests compare floats with == on purpose.
func nonTestFiles(goFiles []string) []string {
	var files []string
	for _, f := range goFiles {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		files = append(files, f)
	}
	return files
}

// writeVetx writes the package's facts to the .vetx path the go command
// demands exist after every visit; dependents read it via PackageVetx.
func writeVetx(cfg vetConfig, facts *analyzers.PackageFacts) {
	if cfg.VetxOutput == "" {
		return
	}
	if facts == nil {
		facts = &analyzers.PackageFacts{}
	}
	data, err := json.Marshal(facts)
	if err != nil {
		data = []byte("{}")
	}
	os.WriteFile(cfg.VetxOutput, data, 0o666) //nolint:errcheck // vet surfaces the missing file itself
}

// parseFacts extracts //netsamp: facts from source files, syntax-only
// (no type information needed), for VetxOnly dependency visits.
func parseFacts(files []string) *analyzers.PackageFacts {
	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			// A dependency that does not parse fails the build elsewhere;
			// contribute what parsed so analysis visits still proceed.
			continue
		}
		parsed = append(parsed, af)
	}
	return analyzers.ExtractFacts(parsed)
}

// readDepFacts loads the facts files of dependency packages as
// facts-only Package values for RunAnalyzers.
func readDepFacts(packageVetx map[string]string) []*analyzers.Package {
	var deps []*analyzers.Package
	for path, file := range packageVetx {
		data, err := os.ReadFile(file)
		if err != nil || len(data) == 0 {
			continue
		}
		var facts analyzers.PackageFacts
		if json.Unmarshal(data, &facts) != nil {
			continue // another tool's vetx format; no facts to take
		}
		deps = append(deps, &analyzers.Package{Path: path, Facts: &facts, FactsOnly: true})
	}
	return deps
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "netsamplint: parse %s: %v\n", cfgPath, err)
		return 1
	}
	// Test variants (pkg.test, "pkg [pkg.test]", pkg_test) are skipped
	// entirely; dependency visits (VetxOnly) contribute facts only.
	if strings.Contains(cfg.ImportPath, ".test") || strings.HasSuffix(cfg.ImportPath, "_test") {
		writeVetx(cfg, nil)
		return 0
	}
	files := nonTestFiles(cfg.GoFiles)
	if cfg.VetxOnly || len(files) == 0 {
		var facts *analyzers.PackageFacts
		if len(files) > 0 {
			facts = parseFacts(files)
		}
		writeVetx(cfg, facts)
		return 0
	}
	pkg, err := analyzers.TypeCheckVet(cfg.ImportPath, files, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx(cfg, parseFacts(files))
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs := append([]*analyzers.Package{pkg}, readDepFacts(cfg.PackageVetx)...)
	diags, err := analyzers.RunAnalyzers(pkgs, analyzers.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	writeVetx(cfg, pkg.Facts)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
