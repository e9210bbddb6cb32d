package core

import (
	"fmt"
	"math"
)

// warmStartRates is the projection with caller-supplied mask scratch
// (Solver.WarmStart lends its own, keeping continuation chains
// allocation-free in steady state).
//
//netsamp:noalloc
func (ft *polytope) warmStartRates(prevRates []float64, buf []float64, lower, upper []bool) ([]float64, error) {
	n := len(ft.loads)
	if len(prevRates) != n {
		return nil, fmt.Errorf("core: warm start has %d rates for %d links", len(prevRates), n)
	}
	if !(ft.budget > 0) || math.IsInf(ft.budget, 0) {
		return nil, invalidInput("budget", -1, ft.budget, "want a finite value > 0")
	}
	rates := resizeFloats(buf, n)

	// Clamp into the box; non-finite or negative entries drop to zero so
	// a corrupted previous plan degrades to (partial) waterfilling
	// instead of poisoning the start point.
	spend, maxSampled := 0.0, 0.0
	for i := 0; i < n; i++ {
		r := prevRates[i]
		if math.IsNaN(r) || r < 0 {
			r = 0
		}
		if a := ft.alpha[i]; r > a {
			r = a
		}
		rates[i] = r
		spend += r * ft.loads[i]
		maxSampled += ft.alpha[i] * ft.loads[i]
	}
	if ft.budget > maxSampled*(1+1e-12) {
		return nil, invalidInput("budget", -1, ft.budget,
			fmt.Sprintf("exceeds maximum samplable rate %v (infeasible)", maxSampled))
	}

	switch {
	case spend > ft.budget:
		// Overspend: rescale onto the hyperplane. Scaling by a factor in
		// (0, 1) keeps every coordinate inside [0, α_i].
		scale := ft.budget / spend
		for i := range rates {
			rates[i] *= scale
		}
	case spend < ft.budget:
		// Deficit: waterfill the headroom — but over the links the
		// previous plan already uses first. Keeping prev's zeros at zero
		// preserves the active set the solver inherits from the start
		// point (syncActive pins exact zeros); lifting every off monitor
		// would force the solver to re-pin them one activation per
		// iteration, which is most of a cold solve. Off links are only
		// raised when the active links alone cannot absorb the deficit.
		deficit := ft.budget - spend
		interior := 0.0
		for i := 0; i < n; i++ {
			if rates[i] > 0 {
				interior += (ft.alpha[i] - rates[i]) * ft.loads[i]
			}
		}
		if interior >= deficit {
			ft.waterfill(rates, deficit, true)
		} else {
			for i := 0; i < n; i++ {
				if rates[i] > 0 {
					rates[i] = ft.alpha[i]
				}
			}
			ft.waterfill(rates, deficit-interior, false)
		}
	}
	// Exact equality: absorb the scaling/bisection residual along the
	// links in use — zeros stay exactly zero so the solver inherits the
	// previous active set.
	for i := 0; i < n; i++ {
		lower[i] = rates[i] == 0 //netsamp:floateq-ok exact-zero pins inherit the previous active set
		upper[i] = false
	}
	ft.fixBudget(rates, lower, upper)
	return rates, nil
}

// waterfill raises rates to spend `deficit` more sampled packets: find τ
// with Σ min((α_i − p_i)·U_i, τ) = deficit over the included links
// (monotone in τ: bisect), then raise each by min(α_i − p_i, τ/U_i).
// onlyPositive restricts the fill to links already in use.
//
//netsamp:noalloc
func (ft *polytope) waterfill(rates []float64, deficit float64, onlyPositive bool) {
	n := len(ft.loads)
	include := func(i int) bool { return !onlyPositive || rates[i] > 0 } //netsamp:alloc-ok captures only stack values; does not escape, so it stays on the stack
	hi := 0.0
	for i := 0; i < n; i++ {
		if include(i) {
			if v := (ft.alpha[i] - rates[i]) * ft.loads[i]; v > hi {
				hi = v
			}
		}
	}
	lo := 0.0
	// 64 halvings exhaust a double's precision; fixBudget absorbs the
	// remaining residual exactly.
	for iter := 0; iter < 64; iter++ {
		mid := (lo + hi) / 2
		total := 0.0
		for i := 0; i < n; i++ {
			if include(i) {
				total += math.Min((ft.alpha[i]-rates[i])*ft.loads[i], mid)
			}
		}
		if total < deficit {
			lo = mid
		} else {
			hi = mid
		}
	}
	tau := (lo + hi) / 2
	for i := 0; i < n; i++ {
		if include(i) {
			rates[i] = math.Min(ft.alpha[i], rates[i]+tau/ft.loads[i])
		}
	}
}

// WarmStart projects a previous optimum onto the Solver's current
// feasible set — after any SetBudget/SetLoads re-tuning — and returns a
// budget-feasible starting point for Options.Initial of the next Solve
// on this workspace. This is the continuation primitive of the
// evaluation and control pipelines: the paper's θ-sweep (Figure 2) and
// its successive-interval re-optimization (Section V) solve families of
// closely related instances, and starting each solve from the previous
// fixed point — instead of the cold waterfilling point — cuts the
// iteration count to the few steps the active set actually moves.
//
// The projection is: clamp prev's rates into the box [0, α_i], rescale
// into the budget hyperplane when the point overspends (a pure scaling
// stays inside the box), and waterfill any deficit over the remaining
// per-link headroom when it underspends. The result always satisfies
// Σ p_i·U_i = Budget within the tolerance Options.Initial requires, for
// any prev — including rate vectors that were optimal under different
// loads, a different budget, or no problem at all.
//
// buf is an optional destination reused when its capacity suffices; the
// returned slice aliases it in that case. The Solver's mask scratch
// serves the projection (it is rebuilt by the next solve), so a
// continuation chain reusing buf allocates nothing.
//
//netsamp:noalloc
func (s *Solver) WarmStart(prev *Solution, buf []float64) ([]float64, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: warm start from nil solution")
	}
	return s.warmStartRates(prev.Rates, buf, s.lower, s.upper)
}
