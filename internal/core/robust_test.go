package core

import (
	"errors"
	"math"
	"testing"
)

func robustTestProblem() *Problem {
	return instance{
		Loads:  []float64{1000, 500, 2000},
		Budget: 20,
		Pairs: []pair{
			{Links: []int{0, 1}, Utility: MustSRE(0.002)},
			{Links: []int{1, 2}, Utility: MustSRE(0.001)},
			{Links: []int{2}, Utility: MustSRE(0.005)},
		},
	}.problem()
}

func envelope(loads []float64, rel float64) (lo, hi []float64) {
	lo = make([]float64, len(loads))
	hi = make([]float64, len(loads))
	for i, u := range loads {
		lo[i] = u * (1 - rel)
		hi[i] = u * (1 + rel)
	}
	return lo, hi
}

func TestRobustModeNames(t *testing.T) {
	for _, m := range []RobustMode{RobustOff, RobustPessimistic, RobustOptimistic} {
		back, err := RobustModeByName(m.String())
		if err != nil || back != m {
			t.Fatalf("%v: round trip gave %v, %v", m, back, err)
		}
	}
	if _, err := RobustModeByName("paranoid"); err == nil {
		t.Fatal("unknown mode name accepted")
	}
	if got, err := RobustModeByName(""); err != nil || got != RobustOff {
		t.Fatalf("empty name: %v, %v", got, err)
	}
}

func TestSolveRobustPessimisticKeepsTrueSpendWithinBudget(t *testing.T) {
	p := robustTestProblem()
	lo, hi := envelope(p.Loads, 0.3)
	sol, err := compiled(t, p).SolveRobust(RobustPessimistic, lo, hi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Spend measured against ANY loads inside the envelope — in
	// particular the true (point) loads — stays within θ.
	spend := 0.0
	for i, r := range sol.Rates {
		spend += r * p.Loads[i]
	}
	if spend > p.Budget*(1+1e-9) {
		t.Fatalf("true spend %v exceeds budget %v under pessimistic solve", spend, p.Budget)
	}
	// The solve itself saturates the budget against the upper bounds.
	spendHi := 0.0
	for i, r := range sol.Rates {
		spendHi += r * hi[i]
	}
	if math.Abs(spendHi-p.Budget) > 1e-6*p.Budget {
		t.Fatalf("envelope spend %v, want θ = %v", spendHi, p.Budget)
	}
}

func TestSolveRobustOptimisticSpendsMore(t *testing.T) {
	p := robustTestProblem()
	lo, hi := envelope(p.Loads, 0.3)
	pes, err := compiled(t, p).SolveRobust(RobustPessimistic, lo, hi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := compiled(t, p).SolveRobust(RobustOptimistic, lo, hi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spendAt := func(sol *Solution, loads []float64) float64 {
		s := 0.0
		for i, r := range sol.Rates {
			s += r * loads[i]
		}
		return s
	}
	if !(spendAt(opt, p.Loads) > spendAt(pes, p.Loads)) {
		t.Fatalf("optimistic true spend %v not above pessimistic %v",
			spendAt(opt, p.Loads), spendAt(pes, p.Loads))
	}
}

func TestSolveRobustOffMatchesSolve(t *testing.T) {
	p := robustTestProblem()
	lo, hi := envelope(p.Loads, 0.3)
	plain, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := compiled(t, p).SolveRobust(RobustOff, lo, hi, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Rates {
		if math.Float64bits(plain.Rates[i]) != math.Float64bits(off.Rates[i]) {
			t.Fatalf("RobustOff rate %d differs from plain Solve", i)
		}
	}
}

func TestSolveRobustClampsInfeasibleOptimisticBudget(t *testing.T) {
	p := robustTestProblem()
	// Budget close to the maximum samplable rate under the point loads;
	// the optimistic (lower) envelope cannot carry it.
	p.Budget = 3400
	lo, hi := envelope(p.Loads, 0.3)
	sol, err := compiled(t, p).SolveRobust(RobustOptimistic, lo, hi, Options{})
	if err != nil {
		t.Fatalf("optimistic solve with clamped budget: %v", err)
	}
	// The clamped budget saturates every link at its cap.
	for i, r := range sol.Rates {
		if math.Abs(r-1) > 1e-6 {
			t.Fatalf("rate[%d] = %v, want 1 (budget clamped to the envelope max)", i, r)
		}
	}
}

func TestSolveRobustValidatesBounds(t *testing.T) {
	p := robustTestProblem()
	lo, hi := envelope(p.Loads, 0.3)
	cases := []struct {
		name   string
		lo, hi []float64
	}{
		{"short lower", lo[:2], hi},
		{"zero lower", []float64{0, 500, 2000}, hi},
		{"NaN upper", lo, []float64{math.NaN(), hi[1], hi[2]}},
		{"inverted", hi, lo},
	}
	for _, c := range cases {
		if _, err := compiled(t, p).SolveRobust(RobustPessimistic, c.lo, c.hi, Options{}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := compiled(t, p).SolveRobust(RobustPessimistic, []float64{0, 1, 1}, hi, Options{}); !errors.Is(err, ErrInvalidInput) {
		t.Error("bound rejection is not a typed InputError")
	}
	if _, err := compiled(t, p).SolveRobust(RobustMode(9), lo, hi, Options{}); !errors.Is(err, ErrInvalidInput) {
		t.Error("unknown mode not rejected with a typed InputError")
	}
}

func TestSolveRobustWarmStartReprojected(t *testing.T) {
	p := robustTestProblem()
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := s.SolveRobust(RobustPessimistic, envLo(p), envHi(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An Initial stated against the POINT loads is infeasible against the
	// envelope; SolveRobust must re-project it rather than fail, and land
	// on the same optimum.
	s2, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	init, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s2.SolveRobust(RobustPessimistic, envLo(p), envHi(p), Options{Initial: init.Rates})
	if err != nil {
		t.Fatalf("warm-started robust solve: %v", err)
	}
	for i := range cold.Rates {
		if math.Abs(cold.Rates[i]-warm.Rates[i]) > 1e-6 {
			t.Fatalf("warm-started optimum diverged at link %d: %v vs %v", i, warm.Rates[i], cold.Rates[i])
		}
	}
}

func envLo(p *Problem) []float64 {
	lo, _ := envelope(p.Loads, 0.3)
	return lo
}

func envHi(p *Problem) []float64 {
	_, hi := envelope(p.Loads, 0.3)
	return hi
}
