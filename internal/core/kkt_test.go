package core

import (
	"math"
	"testing"

	"netsamp/internal/rng"
)

// checkKKT certifies a converged exact solution against the program's
// KKT conditions, recomputed from the Problem's rows with naive loops:
// no Solver method and no kernel the solver's own certificate ran through
// is involved, so a kernel bug that fools `Converged` does not fool this.
// Additive rate models only (ρ_k = Σ f_ki·p_i). tol is the solver's
// relative tolerance; the checker allows twice it.
func checkKKT(t testing.TB, p *Problem, sol *Solution, tol float64) {
	t.Helper()
	n := len(p.Loads)
	if len(sol.Rates) != n {
		t.Fatalf("kkt: %d rates for %d links", len(sol.Rates), n)
	}
	frac := func(j int32) float64 {
		if p.Fracs == nil {
			return 1
		}
		return p.Fracs[j]
	}
	g := make([]float64, n)
	for k := 0; k < p.NumPairs(); k++ {
		rho := 0.0
		for j := p.Start[k]; j < p.Start[k+1]; j++ {
			rho += frac(j) * sol.Rates[p.Links[j]]
		}
		w := 1.0
		if p.Weights != nil && p.Weights[k] > 0 {
			w = p.Weights[k]
		}
		d := w * p.Utilities[k].Deriv(rho)
		for j := p.Start[k]; j < p.Start[k+1]; j++ {
			g[p.Links[j]] += d * frac(j)
		}
	}
	gMax, spend := 0.0, 0.0
	const edge = 1e-12 // a rate this close to a bound counts as on it
	atLower := func(i int) bool { return sol.Rates[i] <= edge }
	atUpper := func(i int) bool { return sol.Rates[i] >= capAt(p.MaxRate, i)-edge }
	num, den := 0.0, 0.0
	for i, r := range sol.Rates {
		gMax = math.Max(gMax, math.Abs(g[i]))
		spend += r * p.Loads[i]
		if r < -edge || r > capAt(p.MaxRate, i)+edge {
			t.Errorf("kkt: rate[%d] = %v outside [0, %v]", i, r, capAt(p.MaxRate, i))
		}
		if !atLower(i) && !atUpper(i) {
			num += g[i] * p.Loads[i]
			den += p.Loads[i] * p.Loads[i]
		}
	}
	if math.Abs(spend-p.Budget) > 1e-9*p.Budget {
		t.Errorf("kkt: budget: spend %v, want %v", spend, p.Budget)
	}
	lambda := sol.Lambda
	if den > 0 {
		lambda = num / den
		if math.Abs(lambda-sol.Lambda) > 2*tol*math.Abs(lambda) {
			t.Errorf("kkt: reported λ %v, recomputed %v", sol.Lambda, lambda)
		}
	}
	kappa := 2 * tol * (1 + gMax)
	for i := range sol.Rates {
		res := g[i] - lambda*p.Loads[i]
		switch {
		case atLower(i): // ν_i = λU_i − g_i ≥ 0
			if res > kappa {
				t.Errorf("kkt: lower multiplier of link %d is %v < 0", i, -res)
			}
		case atUpper(i): // μ_i = g_i − λU_i ≥ 0
			if res < -kappa {
				t.Errorf("kkt: upper multiplier of link %d is %v < 0", i, res)
			}
		default:
			if math.Abs(res) > kappa {
				t.Errorf("kkt: stationarity of free link %d: |g − λU| = %v > %v", i, math.Abs(res), kappa)
			}
		}
	}
}

// TestNewtonCGLargeFreeSet: at this instance's optimum more than 512
// links are free, so the last Newton steps — the ones that must run the
// PCG solve to its residual target, un-truncated — are large solves, cold
// and on every warm start.
func TestNewtonCGLargeFreeSet(t *testing.T) {
	cp := csrFromInstance(t, genInstance(t, 2000, 6000, 11, false), 0.05)
	s, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Stats.Converged {
		t.Fatalf("cold solve did not converge in %d iterations", cold.Stats.Iterations)
	}
	free := 0
	for _, r := range cold.Rates {
		if r > 0 && r < 1 {
			free++
		}
	}
	if free <= 512 {
		t.Fatalf("optimal free set %d is not large (want > 512)", free)
	}
	checkKKT(t, cp, cold, 1e-6)

	r := rng.New(17)
	base := append([]float64(nil), cp.Loads...)
	for trial := 0; trial < 10; trial++ {
		for i, u := range base {
			cp.Loads[i] = u * (0.95 + 0.1*r.Float64())
		}
		if err := s.SetLoads(cp.Loads); err != nil {
			t.Fatal(err)
		}
		init, err := s.WarmStart(cold, nil)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := s.Solve(Options{Initial: init})
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Stats.Converged {
			t.Fatalf("trial %d: warm solve did not converge in %d iterations", trial, warm.Stats.Iterations)
		}
		if warm.Stats.Iterations > cold.Stats.Iterations {
			t.Errorf("trial %d: warm start took %d iterations, cold %d", trial, warm.Stats.Iterations, cold.Stats.Iterations)
		}
		checkKKT(t, cp, warm, 1e-6)
	}
}
