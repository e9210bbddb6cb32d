package core

import (
	"math"
	"testing"

	"netsamp/internal/rng"
)

func TestRateForUtilityExactRoundTrip(t *testing.T) {
	// All three utility families: M(M⁻¹(m)) = m everywhere in (0, 1),
	// including below the SRE stitch point.
	utils := []struct {
		name string
		u    Utility
	}{
		{"SRE", MustSRE(0.002)},
		{"SRE-small-c", MustSRE(1e-6)},
		{"Detection", must(NewDetection(500))},
		{"LogCoverage", must(NewLogCoverage(0.01))},
	}
	for _, tc := range utils {
		inv := tc.u.(Inverter)
		for _, m := range []float64{0.01, 0.1, 0.3, 0.5, 0.66, 0.8, 0.95, 0.999} {
			rho, err := inv.RateForUtility(m)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got := tc.u.Value(rho); math.Abs(got-m) > 1e-9 {
				t.Fatalf("%s: M(M⁻¹(%v)) = %v", tc.name, m, got)
			}
		}
	}
}

func TestSolveMaxMinExactTwoLinks(t *testing.T) {
	// Analytic instance: two disjoint links with equal utilities; the
	// max-min optimum equalizes the rates at p = θ/(U₁+U₂).
	p := instance{
		Loads:  []float64{100, 20000},
		Budget: 30,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.002)},
			{Links: []int{1}, Utility: MustSRE(0.002)},
		},
	}.problem()
	sol, err := SolveMaxMinExact(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	u := MustSRE(0.002)
	want := u.Value(p.Budget / (p.Loads[0] + p.Loads[1]))
	if math.Abs(sol.Objective-want) > 1e-6 {
		t.Fatalf("max-min value = %v, analytic %v", sol.Objective, want)
	}
	// Feasibility and full budget use.
	total := 0.0
	for i, r := range sol.Rates {
		if r < -1e-12 || r > 1+1e-9 {
			t.Fatalf("rate %d = %v", i, r)
		}
		total += r * p.Loads[i]
	}
	if math.Abs(total-p.Budget) > 1e-6 {
		t.Fatalf("budget = %v, want %v", total, p.Budget)
	}
}

func TestSolveMaxMinExactBeatsSumObjective(t *testing.T) {
	// The certified optimum is feasible and its worst pair dominates
	// (or matches) the sum-objective optimum's on random instances.
	r := rng.New(606)
	for trial := 0; trial < 15; trial++ {
		nLinks := 3 + r.Intn(8)
		nPairs := 2 + r.Intn(6)
		in := &instance{Loads: make([]float64, nLinks)}
		total := 0.0
		for i := range in.Loads {
			in.Loads[i] = 100 + 30000*r.Float64()
			total += in.Loads[i]
		}
		in.Budget = total * (0.0005 + 0.003*r.Float64())
		for k := 0; k < nPairs; k++ {
			perm := r.Perm(nLinks)
			maxHops := 3
			if nLinks < maxHops {
				maxHops = nLinks
			}
			in.Pairs = append(in.Pairs, pair{
				Links:   append([]int(nil), perm[:1+r.Intn(maxHops)]...),
				Utility: MustSRE(math.Pow(10, -5+2.5*r.Float64())),
			})
		}
		p := in.problem()
		exact, err := SolveMaxMinExact(p, 1e-9)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		feasibility(t, p, exact)
		minOf := func(u []float64) float64 {
			m := math.Inf(1)
			for _, v := range u {
				m = math.Min(m, v)
			}
			return m
		}
		sum, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if minOf(exact.Utilities) < minOf(sum.Utilities)-1e-6 {
			t.Fatalf("trial %d: exact max-min %v below sum min %v",
				trial, minOf(exact.Utilities), minOf(sum.Utilities))
		}
	}
}

func TestSolveMaxMinExactWithDetectionUtility(t *testing.T) {
	p := instance{
		Loads:  []float64{40000, 800},
		Budget: 60,
		Pairs: []pair{
			{Links: []int{0}, Utility: must(NewDetection(500))},
			{Links: []int{1}, Utility: must(NewDetection(500))},
		},
	}.problem()
	sol, err := SolveMaxMinExact(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Equal utilities, disjoint links: equalized detection probability.
	if math.Abs(sol.Utilities[0]-sol.Utilities[1]) > 1e-6 {
		t.Fatalf("not equalized: %v", sol.Utilities)
	}
}

func TestSolveMaxMinExactRejects(t *testing.T) {
	p := instance{
		Loads:  []float64{100},
		Budget: 1,
		Model:  ModelIndependentExact,
		Pairs:  []pair{{Links: []int{0}, Utility: MustSRE(0.01)}},
	}.problem()
	if _, err := SolveMaxMinExact(p, 0); err == nil {
		t.Fatal("exact rate model accepted")
	}
}

// nonInvertible is a valid utility without a closed-form inverse.
type nonInvertible struct{ Utility }

func TestSolveMaxMinExactNeedsInverter(t *testing.T) {
	p := instance{
		Loads:  []float64{100},
		Budget: 1,
		Pairs:  []pair{{Links: []int{0}, Utility: nonInvertible{MustSRE(0.01)}}},
	}.problem()
	if _, err := SolveMaxMinExact(p, 0); err == nil {
		t.Fatal("non-invertible utility accepted")
	}
}
