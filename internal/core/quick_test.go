package core

import (
	"math"
	"testing"
	"testing/quick"
)

// Property (testing/quick): for any valid c, the SRE utility satisfies
// the framework contract at randomly drawn rates.
func TestQuickSREContract(t *testing.T) {
	f := func(rawC, rawRho uint32) bool {
		// c ∈ (1e-8, 1], rho ∈ (0, 1).
		c := 1e-8 + float64(rawC)/float64(math.MaxUint32)*(1-1e-8)
		rho := (float64(rawRho) + 1) / (float64(math.MaxUint32) + 2)
		u, err := NewSRE(c)
		if err != nil {
			return false
		}
		v := u.Value(rho)
		if math.IsNaN(v) || v < 0 {
			return false
		}
		// For c ≤ 1/2 the stitch point x₀ = 3c/(1+c) lies below 1 and M
		// stays within [0, 1]; for larger c (OD pairs of only a couple
		// of packets) the quadratic branch covers all of [0, 1] and M(1)
		// may slightly exceed 1 — harmless, since the optimizer needs
		// only monotonicity and concavity.
		if c <= 0.5 && v > 1+1e-12 {
			return false
		}
		// Monotone: value at a slightly larger rho is no smaller.
		if u.Value(math.Min(1, rho*1.01)) < v-1e-12 {
			return false
		}
		// Derivative positive, curvature negative.
		return u.Deriv(rho) > 0 && u.Curv(rho) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the SRE inverse round-trips for random (c, m).
func TestQuickSREInverseRoundTrip(t *testing.T) {
	f := func(rawC, rawM uint32) bool {
		c := 1e-7 + float64(rawC)/float64(math.MaxUint32)*0.5
		m := 0.001 + float64(rawM)/float64(math.MaxUint32)*0.998
		u, err := NewSRE(c)
		if err != nil {
			return false
		}
		rho, err := u.RateForUtility(m)
		if err != nil {
			return false
		}
		return math.Abs(u.Value(rho)-m) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the waterfill initial point is always feasible — in bounds
// and exactly on the budget hyperplane — for random problems.
func TestQuickWaterfillFeasible(t *testing.T) {
	f := func(seeds [6]uint16, budgetFrac uint8) bool {
		n := len(seeds)
		in := &instance{Loads: make([]float64, n)}
		total := 0.0
		for i, s := range seeds {
			in.Loads[i] = 10 + float64(s)
			total += in.Loads[i]
		}
		frac := 0.001 + float64(budgetFrac)/256*0.9
		in.Budget = total * frac
		in.Pairs = []pair{{Links: []int{0}, Utility: MustSRE(0.001)}}
		p := in.problem()
		rates := make([]float64, n)
		if err := polytopeOf(p).initialPointInto(Options{}, rates); err != nil {
			return false
		}
		spent := 0.0
		for i, r := range rates {
			if r < -1e-12 || r > 1+1e-9 {
				return false
			}
			spent += r * p.Loads[i]
		}
		return math.Abs(spent-p.Budget) <= 1e-6*math.Max(1, p.Budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Solve never returns an infeasible point, whatever the
// (valid) instance.
func TestQuickSolveFeasibility(t *testing.T) {
	f := func(loads [4]uint16, budgetFrac, cScale uint8) bool {
		n := len(loads)
		in := &instance{Loads: make([]float64, n)}
		total := 0.0
		for i, l := range loads {
			in.Loads[i] = 20 + float64(l)
			total += in.Loads[i]
		}
		in.Budget = total * (0.0005 + float64(budgetFrac)/256*0.5)
		c := math.Pow(10, -5+4*float64(cScale)/256)
		for k := 0; k < n; k++ {
			in.Pairs = append(in.Pairs, pair{Links: []int{k}, Utility: MustSRE(c)})
		}
		p := in.problem()
		sol, err := Solve(p, Options{})
		if err != nil {
			return false
		}
		spent := 0.0
		for i, r := range sol.Rates {
			if r < -1e-12 || r > 1+1e-9 {
				return false
			}
			spent += r * p.Loads[i]
		}
		return math.Abs(spent-p.Budget) <= 1e-6*math.Max(1, p.Budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
