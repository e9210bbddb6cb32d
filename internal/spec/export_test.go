package spec

import (
	"math"
	"strings"
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/eval"
	"netsamp/internal/geant"
)

// TestExportRoundTripGEANT is the strongest round-trip check: exporting
// the built-in GEANT scenario, re-parsing it and solving must reproduce
// the native Table I plan exactly.
func TestExportRoundTripGEANT(t *testing.T) {
	s := geant.MustBuild(1)
	var b strings.Builder
	err := Export(&b, s.Graph, s.Demands, s.Pairs, s.Rates, 100000, 300)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n--- first lines ---\n%s",
			err, head(b.String(), 12))
	}
	res, err := parsed.Solve(core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solution.Stats.Converged {
		t.Fatal("round-trip solve did not converge")
	}
	// Native solve for comparison.
	native, err := eval.Table1(s, 100000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Same number of active monitors, same per-pair utilities.
	activeRT := 0
	for _, p := range res.Rates {
		if p > 0 {
			activeRT++
		}
	}
	if activeRT != len(native.Links) {
		t.Fatalf("round trip activated %d monitors, native %d", activeRT, len(native.Links))
	}
	if len(res.Solution.Utilities) != len(native.Rows) {
		t.Fatalf("pair count mismatch")
	}
	// Pair order matches (export preserves order). Tolerance reflects
	// float summation order: the exported file lists demands in a
	// different order, so link loads differ in the last ulp.
	for k := range native.Rows {
		if math.Abs(res.Solution.Utilities[k]-native.Rows[k].Utility) > 1e-6 {
			t.Fatalf("pair %d utility: round trip %v, native %v",
				k, res.Solution.Utilities[k], native.Rows[k].Utility)
		}
	}
}

func TestExportRoundTripAbilene(t *testing.T) {
	s, err := geant.BuildAbilene(1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Export(&b, s.Graph, s.Demands, s.Pairs, s.Rates, 60000, 300); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := parsed.Solve(core.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solution.Stats.Converged {
		t.Fatal("abilene round trip did not converge")
	}
}

func TestExportValidation(t *testing.T) {
	s := geant.MustBuild(1)
	var b strings.Builder
	if err := Export(&b, s.Graph, s.Demands, s.Pairs, s.Rates[:1], 1, 300); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func head(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
