package core

import (
	"errors"
	"math"
	"testing"

	"netsamp/internal/topology"
)

// csrFromInstance builds a Problem over a generated instance with one
// shared SRE utility per flow-size class and θ = budgetFrac·Σ U_i.
func csrFromInstance(t testing.TB, inst *topology.ScaleInstance, budgetFrac float64) *Problem {
	t.Helper()
	byClass := map[float64]Utility{}
	utils := make([]Utility, inst.NumPairs())
	for k, c := range inst.InvSizes {
		u, ok := byClass[c]
		if !ok {
			u = MustSRE(c)
			byClass[c] = u
		}
		utils[k] = u
	}
	return &Problem{
		Loads:     inst.Loads,
		Budget:    budgetFrac * inst.MaxSampledRate(),
		Start:     inst.Start,
		Links:     inst.Links,
		Fracs:     inst.Fracs,
		Utilities: utils,
	}
}

func genInstance(t testing.TB, links, pairs int, seed uint64, ecmp bool) *topology.ScaleInstance {
	t.Helper()
	inst, err := topology.GenerateScale(topology.ScaleConfig{Seed: seed, Links: links, Pairs: pairs, ECMP: ecmp})
	if err != nil {
		t.Fatalf("GenerateScale(links=%d, pairs=%d): %v", links, pairs, err)
	}
	return inst
}

func TestNewSolverValidation(t *testing.T) {
	valid := func() *Problem {
		return &Problem{
			Loads:     []float64{100, 200, 300},
			Budget:    50,
			Start:     []int32{0, 2, 3},
			Links:     []int32{0, 1, 2},
			Utilities: []Utility{MustSRE(0.01), MustSRE(0.02)},
		}
	}
	if _, err := NewSolver(valid()); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := map[string]func(*Problem){
		"nil problem":        nil,
		"zero load":          func(p *Problem) { p.Loads[1] = 0 },
		"nan load":           func(p *Problem) { p.Loads[0] = math.NaN() },
		"no links":           func(p *Problem) { p.Loads = nil },
		"budget zero":        func(p *Problem) { p.Budget = 0 },
		"budget infeasible":  func(p *Problem) { p.Budget = 1e9 },
		"start not zero-led": func(p *Problem) { p.Start[0] = 1 },
		"start non-monotone": func(p *Problem) { p.Start[1] = 3; p.Start[2] = 2 },
		"start wrong tail":   func(p *Problem) { p.Start[2] = 2 },
		"empty row":          func(p *Problem) { p.Start[1] = 0 },
		"link out of range":  func(p *Problem) { p.Links[2] = 3 },
		"negative link":      func(p *Problem) { p.Links[0] = -1 },
		"duplicate in row":   func(p *Problem) { p.Links[1] = 0 },
		"nil utility":        func(p *Problem) { p.Utilities[1] = nil },
		"missing utilities":  func(p *Problem) { p.Utilities = p.Utilities[:1] },
		"frac zero":          func(p *Problem) { p.Fracs = []float64{0, 1, 1} },
		"frac above one":     func(p *Problem) { p.Fracs = []float64{1, 1, 1.5} },
		"alpha above one":    func(p *Problem) { p.MaxRate = []float64{1, 2, 1} },
		"alpha zero":         func(p *Problem) { p.MaxRate = []float64{1, 0, 1} },
		"bad weight":         func(p *Problem) { p.Weights = []float64{1, math.Inf(1)} },
		"fracs non-frac model": func(p *Problem) {
			m, err := ModelByName("independent-exact")
			if err != nil {
				t.Fatal(err)
			}
			p.Fracs = []float64{1, 0.5, 1}
			p.Model = m
		},
	}
	for name, mutate := range cases {
		p := valid()
		if mutate == nil {
			p = nil
		} else {
			mutate(p)
		}
		if _, err := NewSolver(p); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

func csrFeasibility(t *testing.T, p *Problem, sol *Solution, budgetSlack bool) {
	t.Helper()
	spend := 0.0
	for i, r := range sol.Rates {
		if r < -1e-12 || r > 1+1e-12 {
			t.Fatalf("rate[%d] = %v out of [0, 1]", i, r)
		}
		spend += r * p.Loads[i]
	}
	if budgetSlack {
		if spend > p.Budget*(1+1e-9) {
			t.Fatalf("budget overspent: %v > %v", spend, p.Budget)
		}
	} else if math.Abs(spend-p.Budget) > 1e-6*p.Budget {
		t.Fatalf("budget off: spend %v, want %v", spend, p.Budget)
	}
}

// matchesRecorded compares s's optimum with the objective and budget
// multiplier an earlier commit's solver reached, to 1e-9 relative. Both
// sides run at Tol 1e-10 — the default 1e-6 pins λ only to ~1e-8 — so
// sol, a converged default-tolerance solve, is first polished from its
// own rates (a Newton step or two).
func matchesRecorded(t *testing.T, s *Solver, sol *Solution, objective, lambda float64) {
	t.Helper()
	tight, err := s.Solve(Options{Tol: 1e-10, Initial: sol.Rates})
	if err != nil {
		t.Fatal(err)
	}
	if !tight.Stats.Converged {
		t.Fatalf("Tol 1e-10 polish did not converge in %d iterations", tight.Stats.Iterations)
	}
	if math.Abs(tight.Objective-objective) > 1e-9*math.Abs(objective) {
		t.Errorf("objective %.17g, recorded %.17g", tight.Objective, objective)
	}
	if math.Abs(tight.Lambda-lambda) > 1e-9*math.Abs(lambda) {
		t.Errorf("λ %.17g, recorded %.17g", tight.Lambda, lambda)
	}
}

// TestCSRLargeNewtonCG drives the matrix-free Newton step on a large
// free set (over 512 links) and brackets its optimum with the
// Frank-Wolfe duality gap: exact must land inside [approx, approx+gap]
// up to rounding.
func TestCSRLargeNewtonCG(t *testing.T) {
	inst := genInstance(t, 1000, 3000, 5, false)
	cp := csrFromInstance(t, inst, 0.05)
	s, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLinks() <= 512 {
		t.Fatalf("instance too small for a large free set: n = %d", s.NumLinks())
	}
	sol, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Converged {
		t.Fatalf("exact solve did not converge in %d iterations", sol.Stats.Iterations)
	}
	csrFeasibility(t, cp, sol, false)
	checkKKT(t, cp, sol, 1e-6)
	// The optimum the untruncated, unpreconditioned CG solver reached.
	matchesRecorded(t, s, sol, 2991.3250609657312, 7.4182011420309994e-06)

	sa, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	apx, err := sa.SolveApprox(ApproxOptions{GapTol: 1e-4, MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	scale := math.Max(1, math.Abs(apx.Objective))
	if sol.Objective < apx.Objective-1e-7*scale {
		t.Errorf("exact objective %v below approx %v", sol.Objective, apx.Objective)
	}
	if sol.Objective > apx.Objective+apx.GapBound+1e-7*scale {
		t.Errorf("exact objective %v above approx+gap %v", sol.Objective, apx.Objective+apx.GapBound)
	}
}

func TestCSRSolverRetune(t *testing.T) {
	inst := genInstance(t, 300, 400, 13, false)
	cp := csrFromInstance(t, inst, 0.1)
	s, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	sol1, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-tune budget and loads, solve, then restore: the restored solve
	// must be bit-identical to the first (workspace state fully reset).
	if err := s.SetBudget(cp.Budget / 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(Options{}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetBudget(cp.Budget); err != nil {
		t.Fatal(err)
	}
	sol3, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol1.Objective != sol3.Objective {
		t.Fatalf("objective drifted across retune round-trip: %v != %v", sol1.Objective, sol3.Objective)
	}
	for i := range sol1.Rates {
		if sol1.Rates[i] != sol3.Rates[i] {
			t.Fatalf("rate[%d] drifted across retune round-trip", i)
		}
	}
}

func TestCSRTypedErrors(t *testing.T) {
	p := &Problem{
		Loads:     []float64{100, -5},
		Budget:    10,
		Start:     []int32{0, 1},
		Links:     []int32{0},
		Utilities: []Utility{MustSRE(0.01)},
	}
	_, err := NewSolver(p)
	if err == nil {
		t.Fatal("negative load accepted")
	}
	var ie *InputError
	if !errors.As(err, &ie) {
		t.Fatalf("error %T is not *InputError", err)
	}
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatal("error does not match ErrInvalidInput")
	}
}
