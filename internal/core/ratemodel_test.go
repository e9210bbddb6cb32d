package core

import (
	"math"
	"testing"
)

func TestModelByName(t *testing.T) {
	cases := map[string]RateModel{
		"linear":            ModelLinear,
		"independent-exact": ModelIndependentExact,
		"exact":             ModelIndependentExact, // legacy alias
		"coordinated":       ModelCoordinated,
	}
	for name, want := range cases {
		got, err := ModelByName(name)
		if err != nil || got != want {
			t.Errorf("ModelByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ModelByName("quantum"); err == nil {
		t.Error("unknown model accepted")
	}
	if ModelName(nil) != "linear" {
		t.Errorf("ModelName(nil) = %q", ModelName(nil))
	}
	if ModelName(ModelCoordinated) != "coordinated" {
		t.Errorf("ModelName(coordinated) = %q", ModelName(ModelCoordinated))
	}
}

func TestModelProperties(t *testing.T) {
	if !ModelLinear.Additive() || !ModelCoordinated.Additive() || ModelIndependentExact.Additive() {
		t.Fatal("Additive flags wrong")
	}
	if !ModelLinear.SupportsFracs() || !ModelCoordinated.SupportsFracs() || ModelIndependentExact.SupportsFracs() {
		t.Fatal("SupportsFracs flags wrong")
	}
	// Deployed: identity for linear/exact, clamp at 1 for coordinated.
	for _, rho := range []float64{0, 0.3, 1, 1.7} {
		if ModelLinear.Deployed(rho) != rho || ModelIndependentExact.Deployed(rho) != rho {
			t.Fatalf("Deployed(%v) not identity", rho)
		}
	}
	if ModelCoordinated.Deployed(0.4) != 0.4 || ModelCoordinated.Deployed(1.7) != 1 {
		t.Fatal("coordinated Deployed clamp wrong")
	}
}

// TestCoordinatedSolvesBitwiseAsLinear: the coordinated model's solver-
// side surrogate is the same additive form as the linear model, so the
// whole optimization trajectory — rates, rho, objective, iteration
// count — must be bitwise identical. Only deployment semantics differ.
func TestCoordinatedSolvesBitwiseAsLinear(t *testing.T) {
	mk := func(m RateModel) *Problem {
		return instance{
			Loads:  []float64{30000, 8000, 2000, 500},
			Budget: 60,
			Model:  m,
			Pairs: []pair{
				{Links: []int{0, 1}, Utility: MustSRE(0.002)},
				{Links: []int{1, 2}, Utility: MustSRE(0.001)},
				{Links: []int{3}, Utility: MustSRE(0.003)},
			},
		}.problem()
	}
	lin, err := Solve(mk(ModelLinear), Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := Solve(mk(ModelCoordinated), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lin.Objective != coord.Objective || lin.Lambda != coord.Lambda {
		t.Fatalf("objective/lambda differ: (%v, %v) vs (%v, %v)",
			lin.Objective, lin.Lambda, coord.Objective, coord.Lambda)
	}
	if lin.Stats.Iterations != coord.Stats.Iterations {
		t.Fatalf("iteration counts differ: %d vs %d", lin.Stats.Iterations, coord.Stats.Iterations)
	}
	for i := range lin.Rates {
		if lin.Rates[i] != coord.Rates[i] {
			t.Fatalf("rate %d differs: %v vs %v", i, lin.Rates[i], coord.Rates[i])
		}
	}
	for k := range lin.Rho {
		if lin.Rho[k] != coord.Rho[k] {
			t.Fatalf("rho %d differs: %v vs %v", k, lin.Rho[k], coord.Rho[k])
		}
	}
}

// TestNilModelIsLinear: the zero-value Problem solves under the linear
// model, bitwise equal to requesting it explicitly.
func TestNilModelIsLinear(t *testing.T) {
	mk := func(m RateModel) *Problem {
		return instance{
			Loads:  []float64{10000, 3000},
			Budget: 20,
			Model:  m,
			Pairs: []pair{
				{Links: []int{0, 1}, Utility: MustSRE(0.002)},
				{Links: []int{1}, Utility: MustSRE(0.001)},
			},
		}.problem()
	}
	def, err := Solve(mk(nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := Solve(mk(ModelLinear), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.Rates {
		if def.Rates[i] != lin.Rates[i] {
			t.Fatalf("rate %d differs: %v vs %v", i, def.Rates[i], lin.Rates[i])
		}
	}
}

// TestEffectiveRates pins the two shapes of ρ_k: the additive sum (which
// can exceed 1) and the product form (which cannot).
func TestEffectiveRates(t *testing.T) {
	for _, m := range []RateModel{nil, ModelLinear, ModelIndependentExact, ModelCoordinated} {
		p := instance{
			Loads:  []float64{1000, 2000, 500},
			Budget: 5,
			Model:  m,
			Pairs: []pair{
				{Links: []int{0, 1}, Utility: MustSRE(0.002)},
				{Links: []int{2}, Utility: MustSRE(0.001)},
			},
		}.problem()
		rho := p.EffectiveRates([]float64{0.4, 0.8, 0.1})
		if m == ModelIndependentExact {
			if rho[0] != 1-(1-0.4)*(1-0.8) {
				t.Fatalf("product rho = %v", rho[0])
			}
		} else if rho[0] != float64(0.4)+float64(0.8) {
			t.Fatalf("model %s: additive rho = %v", ModelName(m), rho[0])
		}
	}
}

// TestKernelsMatchFiniteDifference checks the compiled kernels against
// the objective they differentiate: gradient vs central differences of
// objective, and lineDerivs' φ′ and φ″ vs first and second differences
// of φ(t) = objective(rates + t·dir) — for every rate model, with and
// without ECMP fractions. The rates are large enough that the product
// model's own curvature (ρ″ ≠ 0) matters.
func TestKernelsMatchFiniteDifference(t *testing.T) {
	halves := [][]float64{{0.5, 0.5}, {0.25, 0.75}, nil}
	for _, c := range []struct {
		name  string
		model RateModel
		fracs [][]float64
	}{
		{"linear", ModelLinear, nil},
		{"linear/ecmp", ModelLinear, halves},
		{"coordinated", ModelCoordinated, nil},
		{"coordinated/ecmp", ModelCoordinated, halves},
		{"independent-exact", ModelIndependentExact, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := instance{
				Loads:  []float64{500, 900, 1300},
				Budget: 300,
				Model:  c.model,
				Pairs: []pair{
					{Links: []int{0, 1}, Utility: MustSRE(0.002)},
					{Links: []int{1, 2}, Utility: MustSRE(0.001), Weight: 2.5},
					{Links: []int{2}, Utility: MustSRE(0.004)},
				},
			}
			for k := range c.fracs {
				in.Pairs[k].Fracs = c.fracs[k]
			}
			p := in.problem()
			s := compiled(t, p)
			rates := []float64{0.2, 0.1, 0.3}
			dir := []float64{0.1, -0.05, 0.02}
			at := func(tt float64) []float64 {
				x := append([]float64(nil), rates...)
				for i := range x {
					x[i] += tt * dir[i]
				}
				return x
			}
			near := func(what string, got, want, tol float64) {
				t.Helper()
				if math.Abs(got-want) > tol*math.Max(math.Abs(want), 1e-9) {
					t.Fatalf("%s = %v, finite difference %v", what, got, want)
				}
			}

			g := make([]float64, 3)
			s.gradient(rates, g)
			const h = 1e-6
			for i := range rates {
				up, dn := at(0), at(0)
				up[i] += h
				dn[i] -= h
				near("gradient", g[i], (s.objective(up)-s.objective(dn))/(2*h), 1e-6)
			}

			const t0, ht = 0.4, 1e-3
			phi := func(tt float64) float64 { return s.objective(at(tt)) }
			d1, d2 := s.lineDerivs(rates, dir, t0)
			near("φ′", d1, (phi(t0+ht)-phi(t0-ht))/(2*ht), 1e-6)
			near("φ″", d2, (phi(t0+ht)-2*phi(t0)+phi(t0-ht))/(ht*ht), 1e-4)
			if d2 >= 0 {
				t.Fatalf("line curvature %v, want < 0", d2)
			}
		})
	}
}
