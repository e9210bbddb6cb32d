package core

import (
	"errors"
	"math"
	"testing"

	"netsamp/internal/rng"
)

// randomApproxProblem mirrors TestSolveRandomProblemsKKT's generator:
// modest random incidences where the exact solver's optimum is cheap to
// compute and the Frank-Wolfe gap certificate can be checked against it.
func randomApproxProblem(r *rng.Source) *Problem {
	nLinks := 4 + r.Intn(8)
	nPairs := 3 + r.Intn(10)
	in := &instance{Loads: make([]float64, nLinks)}
	total := 0.0
	for i := range in.Loads {
		in.Loads[i] = 100 + 5000*r.Float64()
		total += in.Loads[i]
	}
	in.Budget = total * (0.02 + 0.3*r.Float64())
	for k := 0; k < nPairs; k++ {
		nl := 1 + r.Intn(3)
		links := map[int]bool{}
		for len(links) < nl {
			links[r.Intn(nLinks)] = true
		}
		var ls []int
		for i := 0; i < nLinks; i++ {
			if links[i] {
				ls = append(ls, i)
			}
		}
		in.Pairs = append(in.Pairs, pair{
			Links:   ls,
			Utility: MustSRE(0.001 + 0.05*r.Float64()),
			Weight:  0.5 + r.Float64(),
		})
	}
	return in.problem()
}

// TestSolveApproxGapSoundness is the core certificate check: for every
// random instance, f(exact) must lie within [f(approx), f(approx)+gap] —
// the gap bound must never undersell the distance to the optimum, and
// the approximation must never (beyond rounding) beat the exact solver.
func TestSolveApproxGapSoundness(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 60; trial++ {
		p := randomApproxProblem(r)
		exact, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: exact: %v", trial, err)
		}
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		apx, err := s.SolveApprox(ApproxOptions{})
		if err != nil {
			t.Fatalf("trial %d: approx: %v", trial, err)
		}
		if !apx.Approx {
			t.Fatalf("trial %d: Approx flag not set", trial)
		}
		if apx.GapBound < 0 || math.IsNaN(apx.GapBound) {
			t.Fatalf("trial %d: gap bound %v", trial, apx.GapBound)
		}
		scale := math.Max(1, math.Abs(exact.Objective))
		if apx.Objective > exact.Objective+1e-7*scale {
			t.Errorf("trial %d: approx objective %v beats exact %v", trial, apx.Objective, exact.Objective)
		}
		if exact.Objective > apx.Objective+apx.GapBound+1e-7*scale {
			t.Errorf("trial %d: gap bound unsound: exact %v > approx %v + gap %v",
				trial, exact.Objective, apx.Objective, apx.GapBound)
		}
		// Feasibility: within box bounds and under budget (Frank-Wolfe
		// iterates live in the knapsack relaxation, which may leave slack
		// on links no pair traverses).
		spend := 0.0
		for i, rate := range apx.Rates {
			a := capAt(p.MaxRate, i)
			if rate < -1e-12 || rate > a+1e-12 {
				t.Fatalf("trial %d: rate[%d] = %v outside [0, %v]", trial, i, rate, a)
			}
			spend += rate * p.Loads[i]
		}
		if spend > p.Budget*(1+1e-9) {
			t.Fatalf("trial %d: budget overspent: %v > %v", trial, spend, p.Budget)
		}
	}
}

func TestSolveApproxTightTolNearsExact(t *testing.T) {
	r := rng.New(5)
	p := randomApproxProblem(r)
	exact, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	apx, err := s.SolveApprox(ApproxOptions{GapTol: 1e-7, MaxIter: 20000})
	if err != nil {
		t.Fatal(err)
	}
	scale := math.Max(1, math.Abs(exact.Objective))
	if diff := exact.Objective - apx.Objective; diff > 1e-5*scale {
		t.Fatalf("tight-tolerance approx objective %v still %g below exact %v", apx.Objective, diff, exact.Objective)
	}
}

func TestSolveApproxDeterministic(t *testing.T) {
	r := rng.New(9)
	p := randomApproxProblem(r)
	s1, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s1.SolveApprox(ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.SolveApprox(ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.GapBound != b.GapBound {
		t.Fatalf("approx solve not deterministic: obj %v/%v gap %v/%v",
			a.Objective, b.Objective, a.GapBound, b.GapBound)
	}
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			t.Fatalf("rate[%d] differs across identical approx solves", i)
		}
	}
}

func TestSolveApproxRefusesNonAdditive(t *testing.T) {
	m, err := ModelByName("independent-exact")
	if err != nil {
		t.Fatal(err)
	}
	p := instance{
		Loads:  []float64{1000, 2000},
		Budget: 500,
		Model:  m,
		Pairs: []pair{
			{Links: []int{0, 1}, Utility: MustSRE(0.01)},
		},
	}.problem()
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SolveApprox(ApproxOptions{})
	if err == nil {
		t.Fatal("SolveApprox accepted a non-additive model")
	}
	var ie *InputError
	if !errors.As(err, &ie) {
		t.Fatalf("refusal error %T is not *InputError", err)
	}
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatal("refusal does not match ErrInvalidInput")
	}
	// The exact path must still work for the same solver.
	if _, err := s.Solve(Options{}); err != nil {
		t.Fatalf("exact solve after refused approx: %v", err)
	}
}

func TestSolveApproxWarmStart(t *testing.T) {
	r := rng.New(31)
	p := randomApproxProblem(r)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.SolveApprox(ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.SolveApprox(ApproxOptions{Initial: cold.Rates})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Iterations > cold.Stats.Iterations {
		t.Errorf("warm start took %d iterations, cold %d", warm.Stats.Iterations, cold.Stats.Iterations)
	}
	scale := math.Max(1, math.Abs(cold.Objective))
	if warm.Objective < cold.Objective-1e-9*scale {
		t.Errorf("warm start lost objective: %v < %v", warm.Objective, cold.Objective)
	}
}

func TestSolveRobustApprox(t *testing.T) {
	p := instance{
		Loads:  []float64{1000, 2000, 1500},
		Budget: 900,
		Pairs: []pair{
			{Links: []int{0, 1}, Utility: MustSRE(0.01)},
			{Links: []int{1, 2}, Utility: MustSRE(0.02)},
		},
	}.problem()
	lower := []float64{900, 1800, 1400}
	upper := []float64{1100, 2300, 1700}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.SolveRobustApprox(RobustPessimistic, lower, upper, ApproxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Approx {
		t.Fatal("robust approx solution not flagged Approx")
	}
	// Pessimistic: spend against the UPPER loads stays within budget.
	spend := 0.0
	for i, rate := range sol.Rates {
		spend += rate * upper[i]
	}
	if spend > p.Budget*(1+1e-9) {
		t.Fatalf("pessimistic approx overspends upper-envelope budget: %v > %v", spend, p.Budget)
	}

	// RobustOff routes straight to the plain approx path.
	s2, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.SolveRobustApprox(RobustOff, nil, nil, ApproxOptions{}); err != nil {
		t.Fatal(err)
	}
}
