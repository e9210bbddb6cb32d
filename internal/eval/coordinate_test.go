package eval

import (
	"context"
	"strings"
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/plan"
	"netsamp/internal/topology"
)

// TestCoordinationStudyDominates pins the study's headline claim on
// GEANT: at equal θ the coordinated deployment's mean coverage is never
// below the independent one, and at high θ — where multi-monitor paths
// actually overlap — it is strictly above, with a strictly positive
// same-rates gain.
func TestCoordinationStudyDominates(t *testing.T) {
	s := scenario(t)
	thetas := []float64{100000, 1000000}
	points, err := CoordinationStudy(context.Background(), s, thetas, 5, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(thetas) {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.MeanRhoCoordinated < p.MeanRhoIndependent {
			t.Fatalf("θ=%v: coordinated mean coverage %v below independent %v",
				p.Theta, p.MeanRhoCoordinated, p.MeanRhoIndependent)
		}
		if p.MeanGainSameRates < -1e-12 {
			t.Fatalf("θ=%v: negative same-rates gain %v", p.Theta, p.MeanGainSameRates)
		}
		// The worst pair is NOT covered by the theorem — the two optima
		// allocate rates differently — but on GEANT it should not dip by
		// more than solver noise.
		if p.WorstRhoCoordinated < p.WorstRhoIndependent-1e-6 {
			t.Fatalf("θ=%v: coordinated worst coverage %v below independent %v",
				p.Theta, p.WorstRhoCoordinated, p.WorstRhoIndependent)
		}
	}
	// Strict dominance where the optimum spreads over multiple monitors.
	last := points[len(points)-1]
	if last.MeanRhoCoordinated <= last.MeanRhoIndependent {
		t.Fatalf("θ=%v: no strict coverage gain (%v vs %v)",
			last.Theta, last.MeanRhoCoordinated, last.MeanRhoIndependent)
	}
	if last.MeanGainSameRates <= 0 {
		t.Fatalf("θ=%v: no strict same-rates gain (%v)", last.Theta, last.MeanGainSameRates)
	}
}

// TestCoordinationTheoremPerPair checks the pointwise inequality the
// study averages: for ANY per-link rates, the coordinated coverage of
// each pair is at least the independent-sampling product coverage.
func TestCoordinationTheoremPerPair(t *testing.T) {
	s := scenario(t)
	rates := make(map[topology.LinkID]float64, len(s.MonitorLinks))
	for i, lid := range s.MonitorLinks {
		rates[lid] = 0.001 * float64(1+i%7)
	}
	indep := plan.EffectiveRates(s.Matrix, rates, core.ModelIndependentExact)
	coord := plan.EffectiveRates(s.Matrix, rates, core.ModelCoordinated)
	strict := 0
	for k := range indep {
		// Single-monitor pairs are mathematically equal under both
		// models; the product's 1−(1−p) rounding can land an ulp above
		// the additive p, hence the tolerance.
		if coord[k] < indep[k]-1e-12 {
			t.Fatalf("pair %d: coordinated %v below independent %v", k, coord[k], indep[k])
		}
		if coord[k] > indep[k]+1e-12 {
			strict++
		}
	}
	// GEANT paths cross several candidate links, so the inequality must
	// be strict somewhere.
	if strict == 0 {
		t.Fatal("coordination never strictly helped — no multi-monitor pair?")
	}
}

// TestCoordinationStudyDeterministic: same inputs, same output — both
// phases are engine jobs with split seeds, independent of worker count.
func TestCoordinationStudyDeterministic(t *testing.T) {
	s := scenario(t)
	thetas := []float64{50000}
	a, err := CoordinationStudy(context.Background(), s, thetas, 4, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CoordinationStudy(context.Background(), s, thetas, 4, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatalf("study not deterministic:\n%+v\n%+v", a[0], b[0])
	}
}

func TestCoordinationRenderAndCSV(t *testing.T) {
	points := []CoordinationPoint{{
		Theta:              100000,
		MeanRhoIndependent: 0.004, MeanRhoCoordinated: 0.005,
		MeanGainSameRates: 0.0001,
	}}
	var sb strings.Builder
	if err := RenderCoordination(&sb, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "100000") || !strings.Contains(sb.String(), "gain@rates") {
		t.Fatalf("render output missing fields:\n%s", sb.String())
	}
	header, rows := CoordinationCSV(points)
	if len(header) != 8 || len(rows) != 1 || len(rows[0]) != len(header) {
		t.Fatalf("csv shape: %d cols, %d rows", len(header), len(rows))
	}
	if rows[0][0] != "100000" {
		t.Fatalf("theta cell = %q", rows[0][0])
	}
}
