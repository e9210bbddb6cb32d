package core

import (
	"errors"
	"math"
	"testing"
)

func validProblem() *Problem {
	return instance{
		Loads:  []float64{100, 200, 50},
		Budget: 10,
		Pairs: []pair{
			{Links: []int{0, 1}, Utility: MustSRE(0.002)},
			{Links: []int{2}, Utility: MustSRE(0.002)},
		},
	}.problem()
}

// TestValidateTypedErrors: every numeric rejection at compile time is an
// InputError wrapping ErrInvalidInput, and NaN/Inf never slips through.
func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"nan-load", func(p *Problem) { p.Loads[1] = math.NaN() }},
		{"inf-load", func(p *Problem) { p.Loads[0] = math.Inf(1) }},
		{"zero-load", func(p *Problem) { p.Loads[2] = 0 }},
		{"negative-load", func(p *Problem) { p.Loads[2] = -5 }},
		{"nan-cap", func(p *Problem) { p.MaxRate = []float64{1, math.NaN(), 1} }},
		{"oversized-cap", func(p *Problem) { p.MaxRate = []float64{1, 1.5, 1} }},
		{"nan-budget", func(p *Problem) { p.Budget = math.NaN() }},
		{"inf-budget", func(p *Problem) { p.Budget = math.Inf(1) }},
		{"zero-budget", func(p *Problem) { p.Budget = 0 }},
		{"infeasible-budget", func(p *Problem) { p.Budget = 1e12 }},
		{"nan-weight", func(p *Problem) { p.Weights = []float64{math.NaN(), 0} }},
		{"inf-weight", func(p *Problem) { p.Weights = []float64{0, math.Inf(1)} }},
		{"nan-fraction", func(p *Problem) { p.Fracs = []float64{math.NaN(), 0.5, 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validProblem()
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("garbage input accepted")
			}
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("error %v does not wrap ErrInvalidInput", err)
			}
			var ie *InputError
			if !errors.As(err, &ie) {
				t.Fatalf("error %v is not an *InputError", err)
			}
			// NewSolver surfaces the same typed error.
			if _, serr := NewSolver(p); !errors.Is(serr, ErrInvalidInput) {
				t.Fatalf("NewSolver error %v does not wrap ErrInvalidInput", serr)
			}
		})
	}
}

// TestRetuneTypedErrors: the re-tune paths (SetBudget, SetLoads,
// SetWeights, WarmStart) reject garbage with the same typed errors, and
// rejection leaves the compiled solver unchanged.
func TestRetuneTypedErrors(t *testing.T) {
	s, err := NewSolver(validProblem())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), 0, -3, 1e12} {
		if err := s.SetBudget(bad); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("SetBudget(%v) = %v, want ErrInvalidInput", bad, err)
		}
	}
	if s.Problem().Budget != 10 {
		t.Fatalf("rejected SetBudget mutated the budget to %v", s.Problem().Budget)
	}
	for _, bad := range [][]float64{
		{math.NaN(), 200, 50},
		{100, math.Inf(-1), 50},
		{100, 0, 50},
		{1e-9, 1e-9, 1e-9}, // budget becomes infeasible
	} {
		if err := s.SetLoads(bad); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("SetLoads(%v) = %v, want ErrInvalidInput", bad, err)
		}
	}
	if s.Problem().Loads[0] != 100 {
		t.Fatalf("rejected SetLoads mutated loads to %v", s.Problem().Loads)
	}
	// A non-finite weight is rejected exactly like Validate rejects it on
	// a Pair — including when it sits behind valid entries, which must not
	// have been applied by then.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var ie *InputError
		if err := s.SetWeights([]float64{7, bad}); !errors.As(err, &ie) || !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("SetWeights(7, %v) = %v, want *InputError", bad, err)
		}
	}
	if s.wts[0] != 1 || s.wts[1] != 1 {
		t.Fatalf("rejected SetWeights mutated the weights to %v", s.wts)
	}
	// Solve still works after the rejected re-tunes.
	sol, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}

	// The warm-start projection onto an infeasible-budget polytope (no
	// Solver can be re-tuned into one): typed error.
	p := validProblem()
	p.Budget = math.Inf(1)
	n := len(p.Loads)
	if _, err := polytopeOf(p).warmStartRates(sol.Rates, nil, make([]bool, n), make([]bool, n)); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("warm start with Inf budget = %v, want ErrInvalidInput", err)
	}
}

func TestNewSRETypedError(t *testing.T) {
	for _, bad := range []float64{math.NaN(), 0, -1, 1.5, math.Inf(1)} {
		if _, err := NewSRE(bad); !errors.Is(err, ErrInvalidInput) {
			t.Fatalf("NewSRE(%v) = %v, want ErrInvalidInput", bad, err)
		}
	}
}
