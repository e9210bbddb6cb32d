package eval

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"netsamp/internal/geant"
)

var update = flag.Bool("update", false, "rewrite REPORT.md at the module root from WriteReport")

// TestReportGolden holds REPORT.md byte-equal to `netsamp report` at its
// default flags (seed 1, θ = 100000, 20 trials). A change that moves a
// number in the report regenerates it with
// `go test ./internal/eval -run TestReportGolden -update` and says which
// rows moved and why. The report's floats are recorded on amd64; other
// architectures may fuse multiply-adds and round differently.
func TestReportGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("REPORT.md is recorded on amd64, not %s", runtime.GOARCH)
	}
	var got bytes.Buffer
	if err := WriteReport(&got, geant.MustBuild(1), ReportConfig{Theta: 100000, Trials: 20, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "REPORT.md")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of file>"
	}
	t.Fatalf("REPORT.md line %d differs; regenerate with -update and say which rows moved:\n got: %q\nwant: %q", i+1, at(g), at(w))
}
