package core

import (
	"fmt"
	"math"

	"netsamp/internal/lp"
)

// Inverter is implemented by utilities whose inverse M⁻¹ is available in
// closed form. All utilities shipped with core implement it.
type Inverter interface {
	// RateForUtility returns the effective sampling rate ρ with
	// M(ρ) = m, for m ∈ (0, 1).
	RateForUtility(m float64) (float64, error)
}

// SolveMaxMinExact computes the exact max-min optimum
//
//	maximize  min_k M_k(ρ_k(p))
//	s.t.      Σ p_i·U_i = θ,  0 ≤ p_i ≤ α_i
//
// under the linear effective-rate model. For a fixed worst-pair target
// m, reaching utility m on every pair is the linear feasibility problem
// "Σ_i f_ki·p_i ≥ M_k⁻¹(m) for all k, p ≤ α, min Σ p·U ≤ θ"; because
// every M_k is increasing, feasibility is monotone in m, so bisection on
// m pins the optimum to within tol (default 1e-9). Each probe solves a
// small linear program (internal/lp).
//
// It requires an additive rate model (ModelLinear or ModelCoordinated —
// the LP rows are only linear in the rates then) and utilities
// implementing Inverter. Budget left over at the optimal
// target is spent waterfilling the remaining link capacity, so the
// returned solution satisfies the budget with equality without lowering
// any utility.
func SolveMaxMinExact(p *Problem, tol float64) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if m := modelOrLinear(p.Model); !m.Additive() {
		return nil, fmt.Errorf("core: SolveMaxMinExact requires an additive rate model, not %s", m.Name())
	}
	if tol <= 0 {
		tol = 1e-9
	}
	n, nPairs := len(p.Loads), p.NumPairs()
	inverters := make([]Inverter, nPairs)
	for k, u := range p.Utilities {
		inv, ok := u.(Inverter)
		if !ok {
			return nil, fmt.Errorf("core: pair %d utility does not implement Inverter", k)
		}
		inverters[k] = inv
	}

	// minCost returns the cheapest sampled rate achieving worst-pair
	// target m, or +Inf if unreachable under the caps.
	minCost := func(m float64) (float64, []float64, error) {
		c := append([]float64(nil), p.Loads...)
		var a [][]float64
		var rel []lp.Rel
		var b []float64
		for k := 0; k < nPairs; k++ {
			target, err := inverters[k].RateForUtility(m)
			if err != nil {
				return 0, nil, err
			}
			row := make([]float64, n)
			for j := p.Start[k]; j < p.Start[k+1]; j++ {
				f := 1.0
				if p.Fracs != nil {
					f = p.Fracs[j]
				}
				row[p.Links[j]] = f
			}
			a = append(a, row)
			rel = append(rel, lp.GE)
			b = append(b, target)
		}
		for i := 0; i < n; i++ {
			row := make([]float64, n)
			row[i] = 1
			a = append(a, row)
			rel = append(rel, lp.LE)
			b = append(b, capAt(p.MaxRate, i))
		}
		x, obj, st, err := lp.Solve(c, a, rel, b)
		if err != nil {
			return 0, nil, err
		}
		if st != lp.Optimal {
			return math.Inf(1), nil, nil
		}
		return obj, x, nil
	}

	lo, hi := 0.0, 1.0-1e-12
	var bestRates []float64
	// Shrink hi until feasible at least once; m near 1 is usually
	// unreachable under the budget.
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		cost, x, err := minCost(mid)
		if err != nil {
			return nil, err
		}
		if cost <= p.Budget {
			lo = mid
			bestRates = x
		} else {
			hi = mid
		}
		if hi-lo <= tol {
			break
		}
	}
	if bestRates == nil {
		// Even the smallest probed target is unaffordable; fall back to
		// the zero-target LP (always feasible: p = 0 costs 0), then
		// waterfill the budget.
		bestRates = make([]float64, n)
	}

	// Spend the leftover budget: waterfill remaining capacity (raising
	// rates never lowers a utility).
	spent := 0.0
	for i, r := range bestRates {
		spent += r * p.Loads[i]
	}
	leftover := p.Budget - spent
	if leftover > 0 {
		// Find τ with Σ_i min(α_i·U_i, r_i·U_i + τ) − r_i·U_i = leftover.
		loT, hiT := 0.0, 0.0
		for i := range bestRates {
			hiT = math.Max(hiT, capAt(p.MaxRate, i)*p.Loads[i])
		}
		add := func(tau float64) float64 {
			s := 0.0
			for i, r := range bestRates {
				cur := r * p.Loads[i]
				cap := capAt(p.MaxRate, i) * p.Loads[i]
				s += math.Min(cap, cur+tau) - cur
			}
			return s
		}
		for iter := 0; iter < 100; iter++ {
			mid := (loT + hiT) / 2
			if add(mid) < leftover {
				loT = mid
			} else {
				hiT = mid
			}
		}
		tau := (loT + hiT) / 2
		for i := range bestRates {
			cur := bestRates[i] * p.Loads[i]
			cap := capAt(p.MaxRate, i) * p.Loads[i]
			bestRates[i] = math.Min(cap, cur+tau) / p.Loads[i]
		}
	}

	sol := &Solution{
		Rates:     bestRates,
		Rho:       p.EffectiveRates(bestRates),
		LowerMult: make([]float64, n),
		UpperMult: make([]float64, n),
		Stats:     Stats{Converged: true},
	}
	sol.Utilities = make([]float64, nPairs)
	minU := math.Inf(1)
	for k, u := range p.Utilities {
		sol.Utilities[k] = u.Value(sol.Rho[k])
		minU = math.Min(minU, sol.Utilities[k])
	}
	// For the max-min solver the reported objective is the minimum.
	sol.Objective = minU
	return sol, nil
}
