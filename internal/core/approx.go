package core

import "math"

// SolveApprox: a Frank-Wolfe (conditional-gradient) approximation path
// for deadline-bound solves. Each iteration takes one gradient sweep,
// solves the linear maximization over the feasible polytope
//
//	max ⟨g, v⟩  s.t.  Σ U_i·v_i ≤ θ,  0 ≤ v_i ≤ α_i
//
// exactly (a fractional knapsack: fill links by marginal utility per
// sampled packet g_i/U_i), and line-searches toward the vertex. Because
// the objective is concave for every additive rate model, the linearized
// improvement is a certified duality gap:
//
//	f* ≤ f(x) + ⟨g(x), v − x⟩ = f(x) + GapBound,
//
// sound for the paper's equality-constrained optimum too, since the
// equality feasible set is contained in the knapsack polytope. The
// iteration needs no active-set bookkeeping and no Newton systems, so
// its per-iteration cost is a small constant number of CSR sweeps —
// the escape hatch control reaches for when the exact KKT path would
// overrun the measurement interval (cf. "Fast Approximation Algorithms
// for Near-optimal Large-scale Network Monitoring").

// ApproxOptions tunes SolveApprox. The zero value selects the defaults.
type ApproxOptions struct {
	// MaxIter bounds the Frank-Wolfe iterations; 0 selects 400.
	MaxIter int
	// GapTol is the relative duality-gap target: the iteration stops once
	// GapBound ≤ GapTol·max(1, |objective|). 0 selects 1e-3.
	GapTol float64
	// Initial optionally supplies a feasible starting point (same
	// contract as Options.Initial); nil starts from the waterfilling
	// point.
	Initial []float64
}

//netsamp:noalloc
func (o ApproxOptions) maxIter() int {
	if o.MaxIter <= 0 {
		return 400
	}
	return o.MaxIter
}

//netsamp:noalloc
func (o ApproxOptions) gapTol() float64 {
	if o.GapTol <= 0 {
		return 1e-3
	}
	return o.GapTol
}

// SolveApprox runs the Frank-Wolfe approximation and returns a freshly
// allocated Solution with Approx set and GapBound carrying the duality-
// gap certificate. Refused with a typed *InputError for non-additive
// rate models: the gap bound needs a concave objective, which the
// product model does not supply.
func (s *Solver) SolveApprox(opt ApproxOptions) (*Solution, error) {
	sol := &Solution{}
	if err := s.SolveApproxInto(sol, opt); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolveApproxInto is SolveApprox writing into a reused Solution; like
// SolveInto it is allocation-free in steady state.
//
//netsamp:noalloc
func (s *Solver) SolveApproxInto(sol *Solution, opt ApproxOptions) error {
	if !s.model.Additive() {
		return errApproxNotAdditive(s.model)
	}
	n := s.n
	rates := s.rates
	if err := s.initialPointInto(Options{Initial: opt.Initial}, rates); err != nil {
		return err
	}
	g, v, d := s.g, s.sdir, s.d
	maxIter := opt.maxIter()
	gapTol := opt.gapTol()
	gap := math.Inf(1)
	var stats Stats
	for it := 1; ; it++ {
		stats.Iterations = it
		s.gradient(rates, g)
		gap = s.lmoInto(g, rates, v)
		obj := s.objective(rates)
		if gap <= gapTol*math.Max(1, math.Abs(obj)) {
			stats.Converged = true
			break
		}
		if it >= maxIter {
			break
		}
		for i := 0; i < n; i++ {
			d[i] = v[i] - rates[i]
		}
		// Exact line search toward the vertex: φ(t) = f(x + t·d) is
		// concave on [0, 1], reuse the solver's safeguarded Newton search.
		t, _ := s.lineSearch(rates, d, 1, Options{}, false)
		if !(t > 0) {
			break
		}
		for i := 0; i < n; i++ {
			rates[i] += t * d[i]
			if rates[i] < 0 {
				rates[i] = 0
			}
			if a := s.alpha[i]; rates[i] > a {
				rates[i] = a
			}
		}
	}
	s.syncActive(rates, s.lower, s.upper)
	s.gradient(rates, g)
	s.finishInto(sol, rates, g, stats, stats.Converged)
	sol.Approx = true
	sol.GapBound = gap
	return nil
}

// errApproxNotAdditive is the typed refusal for non-additive rate
// models (unannotated helper: the wrapper allocation stays off the
// noalloc-fenced solve path).
func errApproxNotAdditive(m RateModel) error {
	return &InputError{
		Field:  "rate model " + m.Name(),
		Index:  -1,
		Reason: "not additive: SolveApprox's duality-gap bound needs a concave objective; use the exact solver",
	}
}

// lmoInto solves the linear maximization over the knapsack relaxation of
// the feasible set, writes the maximizing vertex into v, and returns the
// duality gap ⟨g, v − x⟩. Links are filled in descending g_i/U_i order
// (marginal utility per sampled packet); the last link taken may be
// fractional. Links with g_i ≤ 0 stay at zero — they could only waste
// budget.
//
//netsamp:noalloc
func (s *Solver) lmoInto(g, x, v []float64) float64 {
	n := s.n
	idx := s.lmoIdx[:0]
	ratio := s.lmoRatio
	for i := 0; i < n; i++ {
		v[i] = 0
		if g[i] > 0 {
			idx = append(idx, int32(i))
			ratio[i] = g[i] / s.loads[i]
		}
	}
	// Ascending heapsort by ratio (deterministic for fixed inputs), then
	// fill the budget from the top end.
	heapsortByKey(idx, ratio)
	rem := s.budget
	for j := len(idx) - 1; j >= 0 && rem > 0; j-- {
		i := int(idx[j])
		u := s.loads[i]
		take := s.alpha[i]
		if take*u > rem {
			take = rem / u
		}
		v[i] = take
		rem -= take * u
	}
	gap := 0.0
	for i := 0; i < n; i++ {
		gap += g[i] * (v[i] - x[i])
	}
	if gap < 0 {
		// v maximizes ⟨g, ·⟩ over a polytope containing x, so the true gap
		// is ≥ 0; a negative value is summation rounding at an (already)
		// optimal point. Clamp so the certificate stays sound.
		gap = 0
	}
	return gap
}

// heapsortByKey sorts idx ascending by key[idx[j]] in place. Hand-rolled
// heapsort instead of sort.Slice: no closure, no allocation, and a
// deterministic permutation for fixed inputs.
//
//netsamp:noalloc
func heapsortByKey(idx []int32, key []float64) {
	m := len(idx)
	for root := m/2 - 1; root >= 0; root-- {
		siftDownByKey(idx, key, root, m)
	}
	for end := m - 1; end > 0; end-- {
		idx[0], idx[end] = idx[end], idx[0]
		siftDownByKey(idx, key, 0, end)
	}
}

//netsamp:noalloc
func siftDownByKey(idx []int32, key []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && key[idx[child+1]] > key[idx[child]] {
			child++
		}
		if key[idx[child]] <= key[idx[root]] {
			return
		}
		idx[root], idx[child] = idx[child], idx[root]
		root = child
	}
}
