package core

import (
	"math"
	"testing"
)

func TestValidateFractions(t *testing.T) {
	good := func() *Problem {
		return instance{
			Loads:  []float64{100, 100},
			Budget: 1,
			Pairs: []pair{{
				Links: []int{0, 1}, Fracs: []float64{0.5, 0.5},
				Utility: MustSRE(0.01),
			}},
		}.problem()
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("good fractional problem rejected: %v", err)
	}
	cases := []func(p *Problem){
		func(p *Problem) { p.Fracs = []float64{0.5} },        // length
		func(p *Problem) { p.Fracs = []float64{0, 0.5} },     // zero
		func(p *Problem) { p.Fracs = []float64{1.5, 0.5} },   // > 1
		func(p *Problem) { p.Model = ModelIndependentExact }, // exact + fractions
	}
	for i, mutate := range cases {
		p := good()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFractionalEffectiveRate(t *testing.T) {
	p := instance{
		Loads:  []float64{100, 100},
		Budget: 1,
		Pairs: []pair{{
			Links: []int{0, 1}, Fracs: []float64{0.5, 0.25},
			Utility: MustSRE(0.01),
		}},
	}.problem()
	rho := p.EffectiveRates([]float64{0.02, 0.04})
	want := 0.5*0.02 + 0.25*0.04
	if math.Abs(rho[0]-want) > 1e-15 {
		t.Fatalf("rho = %v, want %v", rho[0], want)
	}
}

// TestSolveECMPEquivalence: a pair split 50/50 over two identical
// parallel links must receive equal rates on both, and its effective
// rate must equal what a single-path pair would get at the same cost.
func TestSolveECMPEquivalence(t *testing.T) {
	p := instance{
		// Two ECMP branches of pair a (each carries half its packets and
		// half its load) and one separate link for pair b.
		Loads:  []float64{1000, 1000, 2000},
		Budget: 20,
		Pairs: []pair{
			{Links: []int{0, 1}, Fracs: []float64{0.5, 0.5}, Utility: MustSRE(0.001)},
			{Links: []int{2}, Utility: MustSRE(0.001)},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Converged {
		t.Fatal("did not converge")
	}
	if math.Abs(sol.Rates[0]-sol.Rates[1]) > 1e-9 {
		t.Fatalf("ECMP branches got unequal rates: %v", sol.Rates)
	}
	// Symmetric instance: sampling pair a on both branches at rate p
	// gives rho_a = p at cost 2000p — identical economics to pair b on
	// its single 2000-load link. Rates must match.
	if math.Abs(sol.Rates[0]-sol.Rates[2]) > 1e-7 {
		t.Fatalf("ECMP pair priced differently from single-path twin: %v", sol.Rates)
	}
	if math.Abs(sol.Rho[0]-sol.Rho[1]) > 1e-7 {
		t.Fatalf("unequal effective rates: %v", sol.Rho)
	}
}
