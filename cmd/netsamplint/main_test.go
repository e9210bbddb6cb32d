package main

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"netsamp/internal/analyzers"
)

// TestStandaloneOneFinding runs the standalone driver over a package
// whose one noalloc function makes one allocating call, fmt.Sprint: the
// run exits 2 and prints that call once, though both the construct and
// the call rules cover it.
func TestStandaloneOneFinding(t *testing.T) {
	var out bytes.Buffer
	if code := standalone(&out, []string{"./testdata/onealloc"}, false, false); code != 2 {
		t.Fatalf("exit code %d, want 2; output:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "onealloc.go:11:") || !strings.Contains(lines[0], "[noalloc] ") {
		t.Fatalf("want exactly one noalloc finding at onealloc.go:11, got:\n%s", out.String())
	}
}

// TestJSONListsTheSuite checks that the -json baseline names exactly the
// analyzers the driver runs, analyzers.All(), in order.
func TestJSONListsTheSuite(t *testing.T) {
	var out bytes.Buffer
	if code := standalone(&out, []string{"./testdata/onealloc"}, true, false); code != 2 {
		t.Fatalf("exit code %d, want 2; output:\n%s", code, out.String())
	}
	var got baseline
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("decode -json output: %v\n%s", err, out.String())
	}
	var want []string
	for _, a := range analyzers.All() {
		want = append(want, a.Name)
	}
	if !slices.Equal(got.Analyzers, want) {
		t.Errorf("analyzers = %v, want %v", got.Analyzers, want)
	}
	if got.Packages != 1 || len(got.Findings) != 1 {
		t.Errorf("%d packages, %d findings; want 1 and 1: %+v", got.Packages, len(got.Findings), got.Findings)
	}
}
