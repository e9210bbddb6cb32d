package core

import (
	"fmt"
	"math"
)

// Options tunes the gradient-projection solver. The zero value selects
// the defaults used throughout the paper's evaluation.
type Options struct {
	// MaxIter bounds the number of search directions computed. The paper
	// uses 2000 ("to keep the execution time in the order of a few
	// seconds"); 0 selects that default.
	MaxIter int
	// Tol is the relative convergence tolerance on the infinity norm of
	// the projected gradient and on the KKT multiplier check. 0 selects
	// 1e-6, roughly the double-precision noise floor of the gradient at
	// the low sampling rates the optimum exhibits.
	Tol float64
	// DisablePreconditioner turns off the diagonal 1/U_i² metric that
	// makes the budget hyperplane isotropic (ablation switch; the
	// unpreconditioned method zig-zags when link loads span orders of
	// magnitude).
	DisablePreconditioner bool
	// DisablePolakRibiere turns off conjugate-direction blending and
	// falls back to the pure projected gradient (the paper discusses the
	// zig-zag pathology this causes; kept as an ablation switch).
	DisablePolakRibiere bool
	// DisableNewton replaces the Newton one-dimensional search with pure
	// bisection on φ' (ablation switch; slower, same fixed point).
	DisableNewton bool
	// DisableSecondOrder turns off the Newton-KKT step on the free
	// subspace and falls back to the first-order projected search
	// everywhere (ablation switch; the paper's method, many more
	// iterations near the optimum). The second-order step is what makes
	// warm-started continuation solves converge in a handful of
	// iterations: a warm start supplies the optimal active set, and on a
	// fixed active set the Newton iteration is quadratically convergent.
	DisableSecondOrder bool
	// Initial optionally supplies a feasible starting point. When nil a
	// waterfilling point on the budget hyperplane is used.
	Initial []float64
}

//netsamp:noalloc
func (o Options) maxIter() int {
	if o.MaxIter <= 0 {
		return 2000
	}
	return o.MaxIter
}

//netsamp:noalloc
func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-6
	}
	return o.Tol
}

// Stats records how the solver ran; the paper reports these numbers for
// 200 randomized executions (Section IV-D).
type Stats struct {
	// Iterations is the number of search directions computed.
	Iterations int
	// Removals counts the events where active constraints with negative
	// Lagrange multipliers had to be de-activated to continue the search.
	Removals int
	// Converged reports whether the KKT conditions were met within
	// MaxIter iterations.
	Converged bool
}

// Solution is the solver's output: the optimal sampling-rate vector and
// its certificates.
type Solution struct {
	// Rates is p*: Rates[i] is the sampling probability of candidate
	// link i; zero means the monitor on link i stays off.
	Rates []float64
	// Objective is Σ_k M_k(ρ_k) at Rates.
	Objective float64
	// Rho and Utilities are the per-pair effective sampling rates and
	// utilities at Rates.
	Rho       []float64
	Utilities []float64
	// Lambda is the multiplier of the budget equality constraint (the
	// marginal utility of capacity θ).
	Lambda float64
	// LowerMult and UpperMult are the multipliers ν_i (p_i ≥ 0) and μ_i
	// (p_i ≤ α_i); entries are zero for inactive constraints.
	LowerMult, UpperMult []float64
	// Approx reports that this solution came from the Frank-Wolfe
	// approximation path (SolveApprox) rather than the exact KKT solver.
	Approx bool
	// GapBound is the duality-gap certificate of an approximate solution:
	// the exact optimum satisfies f* ≤ Objective + GapBound. Zero for
	// exact solves (whose certificate is Stats.Converged).
	GapBound float64
	// Stats describes the run.
	Stats Stats
}

// ActiveMonitors returns the indices of links with a strictly positive
// sampling rate — the monitors that must be activated.
func (s *Solution) ActiveMonitors() []int {
	var out []int
	for i, r := range s.Rates {
		if r > 0 {
			out = append(out, i)
		}
	}
	return out
}

// snapTol is the absolute tolerance within which a rate is snapped onto
// a bound and the bound is considered active.
const snapTol = 1e-12

// Solve runs the gradient projection method of Section IV-D and returns
// the optimizer of the sampling problem. The returned solution is
// feasible; Stats.Converged reports whether it carries a KKT optimality
// certificate (in the paper's experiments 98.6% of runs converge within
// 2000 iterations).
//
// Solve is a one-shot convenience wrapper: it validates and compiles the
// problem on every call. Callers that solve the same problem shape
// repeatedly (θ-sweeps, reweighted rounds, per-interval re-optimization)
// should build a Solver once and reuse it — repeated Solver.SolveInto
// calls are allocation-free in steady state.
func Solve(p *Problem, opt Options) (*Solution, error) {
	s, err := NewSolver(p)
	if err != nil {
		return nil, err
	}
	return s.Solve(opt)
}

// polytope is the feasible set {0 ≤ p_i ≤ α_i, Σ p_i·U_i = θ} — the
// numeric half of a problem. A Solver owns one as private copies, so
// re-tuning never touches caller memory; the feasibility and active-set
// helpers of the gradient projection are its methods, and none of them
// needs the pair rows.
type polytope struct {
	loads []float64 // U_i
	// alpha is α_i, materialised: 1 where the problem set no cap.
	alpha  []float64
	budget float64 // θ
}

// fullCaps materialises the nil-means-uncapped MaxRate convention into
// a fresh per-link slice.
func fullCaps(maxRate []float64, n int) []float64 {
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = capAt(maxRate, i)
	}
	return alpha
}

// initialPointInto writes a feasible start into rates (length NumLinks):
// the caller's point (validated) or the waterfilling point
// min(α_i, τ/U_i) with τ chosen so the budget holds with equality.
//
//netsamp:noalloc
func (ft *polytope) initialPointInto(opt Options, rates []float64) error {
	n := len(ft.loads)
	if opt.Initial != nil {
		if len(opt.Initial) != n {
			return fmt.Errorf("core: initial point has %d entries for %d links", len(opt.Initial), n)
		}
		copy(rates, opt.Initial)
		total := 0.0
		for i, r := range rates {
			if r < -snapTol || r > ft.alpha[i]+snapTol {
				return fmt.Errorf("core: initial rate %v of link %d violates [0, %v]", r, i, ft.alpha[i])
			}
			total += r * ft.loads[i]
		}
		if math.Abs(total-ft.budget) > 1e-6*math.Max(1, ft.budget) {
			return fmt.Errorf("core: initial point uses %v of budget %v", total, ft.budget)
		}
		return nil
	}
	// Waterfill: Σ_i min(α_i·U_i, τ) = Budget; bisect on τ.
	hi := 0.0
	for i := range ft.loads {
		if v := ft.alpha[i] * ft.loads[i]; v > hi {
			hi = v
		}
	}
	lo := 0.0
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		total := 0.0
		for i := range ft.loads {
			total += math.Min(ft.alpha[i]*ft.loads[i], mid)
		}
		if total < ft.budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	tau := (lo + hi) / 2
	for i := range rates {
		rates[i] = math.Min(ft.alpha[i], tau/ft.loads[i])
	}
	// Exact equality: rescale the interior coordinates to absorb the
	// bisection residual.
	ft.fixBudget(rates, nil, nil)
	return nil
}

// fixBudget removes the budget-equality drift by shifting free
// coordinates along the loads vector (the minimum-norm correction),
// clamping to bounds. lower/upper may be nil, meaning all coordinates
// are free.
//
//netsamp:noalloc
func (ft *polytope) fixBudget(rates []float64, lower, upper []bool) {
	for pass := 0; pass < 4; pass++ {
		viol := -ft.budget
		for i, r := range rates {
			viol += r * ft.loads[i]
		}
		if math.Abs(viol) <= 1e-12*ft.budget {
			return
		}
		den := 0.0
		for i := range rates {
			if lower != nil && (lower[i] || upper[i]) {
				continue
			}
			den += ft.loads[i] * ft.loads[i]
		}
		//netsamp:floateq-ok a sum of squares is exactly zero only when every term is
		if den == 0 {
			return
		}
		for i := range rates {
			if lower != nil && (lower[i] || upper[i]) {
				continue
			}
			rates[i] -= viol * ft.loads[i] / den
			if rates[i] < 0 {
				rates[i] = 0
			}
			if a := ft.alpha[i]; rates[i] > a {
				rates[i] = a
			}
		}
	}
}

// reproject snaps near-bound rates onto their bounds and restores the
// budget equality.
//
//netsamp:noalloc
func (ft *polytope) reproject(rates []float64, lower, upper []bool) {
	for i := range rates {
		if rates[i] < snapTol {
			rates[i] = 0
		}
		if a := ft.alpha[i]; rates[i] > a-snapTol {
			rates[i] = a
		}
	}
	ft.fixBudget(rates, lower, upper)
}

// syncActive refreshes the active-set flags from the current point.
//
//netsamp:noalloc
func (ft *polytope) syncActive(rates []float64, lower, upper []bool) {
	for i := range rates {
		lower[i] = rates[i] <= snapTol
		upper[i] = rates[i] >= ft.alpha[i]-snapTol
		if lower[i] {
			rates[i] = 0
		}
		if upper[i] {
			rates[i] = ft.alpha[i]
		}
	}
}

//netsamp:noalloc
func (ft *polytope) activate(rates []float64, i int, lower, upper []bool) {
	a := ft.alpha[i]
	if math.Abs(rates[i]-a) < math.Abs(rates[i]) {
		rates[i] = a
		upper[i] = true
	} else {
		rates[i] = 0
		lower[i] = true
	}
}

//netsamp:noalloc
func countFree(lower, upper []bool) int {
	n := 0
	for i := range lower {
		if !lower[i] && !upper[i] {
			n++
		}
	}
	return n
}

// projectionLambda returns the multiplier of the budget hyperplane for
// the projection of g onto the free subspace: λ = ⟨g,U⟩/⟨U,U⟩ over free
// coordinates.
//
//netsamp:noalloc
func (ft *polytope) projectionLambda(g []float64, lower, upper []bool) float64 {
	num, den := 0.0, 0.0
	for i := range g {
		if lower[i] || upper[i] {
			continue
		}
		num += g[i] * ft.loads[i]
		den += ft.loads[i] * ft.loads[i]
	}
	//netsamp:floateq-ok a sum of squares is exactly zero only when every term is
	if den == 0 {
		return 0
	}
	return num / den
}

// deactivateNegative checks the sign conditions on the bound multipliers
// at a stationary point of the free subspace — ν_i = λU_i − g_i ≥ 0 for
// active lower bounds, μ_i = g_i − λU_i ≥ 0 for active upper bounds —
// frees every active bound that violates them (the paper's recovery
// strategy) and returns how many were freed: zero means the point
// satisfies the KKT conditions.
//
//netsamp:noalloc
func (ft *polytope) deactivateNegative(g []float64, lambda float64, lower, upper []bool, tol float64) int {
	kappa := tol * (1 + normInf(g))
	removed := 0
	for i := range g {
		if lower[i] && lambda*ft.loads[i]-g[i] < -kappa {
			lower[i] = false
			removed++
		} else if upper[i] && g[i]-lambda*ft.loads[i] < -kappa {
			upper[i] = false
			removed++
		}
	}
	return removed
}

// lambdaInterval returns the multiplier interval a fully-constrained
// vertex admits: every coordinate is at a bound, so λ is not pinned by
// stationarity, only bracketed — λ ≥ g_i/U_i over active upper bounds,
// λ ≤ g_i/U_i over active lower bounds.
//
//netsamp:noalloc
func (ft *polytope) lambdaInterval(g []float64, lower, upper []bool) (loLam, hiLam float64) {
	loLam, hiLam = math.Inf(-1), math.Inf(1)
	for i := range g {
		r := g[i] / ft.loads[i]
		if upper[i] {
			loLam = math.Max(loLam, r)
		}
		if lower[i] {
			hiLam = math.Min(hiLam, r)
		}
	}
	return loLam, hiLam
}

// vertexKKT handles the fully-constrained case: optimality holds iff
// the λ-interval is non-empty.
//
//netsamp:noalloc
func (ft *polytope) vertexKKT(g []float64, lower, upper []bool, tol float64) bool {
	loLam, hiLam := ft.lambdaInterval(g, lower, upper)
	kappa := tol * (1 + normInf(g))
	return loLam <= hiLam+kappa
}

// deactivateVertex frees the bounds that prevent the λ-interval from
// being non-empty: the arg-max upper bound and the arg-min lower bound.
//
//netsamp:noalloc
func (ft *polytope) deactivateVertex(g []float64, lower, upper []bool) {
	loIdx, hiIdx := -1, -1
	loLam, hiLam := math.Inf(-1), math.Inf(1)
	for i := range g {
		r := g[i] / ft.loads[i]
		if upper[i] && r > loLam {
			loLam, loIdx = r, i
		}
		if lower[i] && r < hiLam {
			hiLam, hiIdx = r, i
		}
	}
	if loIdx >= 0 {
		upper[loIdx] = false
	}
	if hiIdx >= 0 {
		lower[hiIdx] = false
	}
}

// maxStep returns the largest step along s that keeps every free
// coordinate within its bounds, and the index of the first blocking
// constraint (-1 when unbounded, which cannot happen with finite caps
// unless s is zero on the free set).
//
//netsamp:noalloc
func (ft *polytope) maxStep(rates, s []float64, lower, upper []bool) (float64, int) {
	tMax := math.Inf(1)
	blocking := -1
	for i := range s {
		//netsamp:floateq-ok an exactly-zero step direction means the coordinate is stationary
		if lower[i] || upper[i] || s[i] == 0 {
			continue
		}
		var t float64
		if s[i] > 0 {
			t = (ft.alpha[i] - rates[i]) / s[i]
		} else {
			t = -rates[i] / s[i]
		}
		if t < tMax {
			tMax = t
			blocking = i
		}
	}
	if math.IsInf(tMax, 1) {
		return 0, -1
	}
	return tMax, blocking
}

//netsamp:noalloc
func normInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

//netsamp:noalloc
func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
