package core

import (
	"fmt"
	"math"
	"slices"
)

// Solver is a reusable workspace for solving one problem shape many
// times. Construction validates the problem once and compiles it into
// the one form every kernel computes on: the problem's CSR pair rows
// (pair → links, with optional ECMP fractions), adopted as they arrive,
// plus the solver's own copy of the numeric fields. All float buffers
// are owned by the Solver, so repeated SolveInto calls are allocation-
// free in steady state.
//
// A Solver is not safe for concurrent use; run one Solver per worker
// (internal/engine gives each job its own). The structure (pair count,
// link rows, fractions, rate model) is fixed at construction; numeric
// re-tuning between solves is supported through SetWeights, SetBudget,
// SetLoads and SetUtilities, never mutates the caller's problem, and
// re-validates only the field that changed. The one-shot core.Solve
// remains as a thin wrapper for callers that solve a shape only once.
type Solver struct {
	// polytope holds the private loads, materialised caps and budget.
	polytope
	// model is the resolved effective-rate model (never nil).
	model  RateModel
	n      int // candidate links
	nPairs int
	// maxSampled caches Σ α_i·U_i under the current loads — the budget
	// feasibility bound SetBudget re-checks without a full Validate.
	maxSampled float64

	// CSR incidence: pair k's links are links[start[k]:start[k+1]], and
	// fracs (nil when no pair has ECMP fractions) is indexed in parallel.
	start []int32
	links []int32
	fracs []float64
	utils []Utility
	wts   []float64
	// baseWts holds the compile-time weights SetWeights(nil) restores.
	baseWts []float64

	// Scratch buffers of the gradient-projection iteration.
	rates, g, d, sdir, prevD []float64
	lower, upper             []bool

	// Scratch of the Newton step (newtoncg.go): the link → free-position
	// map (−1 on pinned links), per-pair curvature coefficients, the CG
	// work vectors and the inverted Jacobi diagonal. O(n + nPairs), like
	// every other buffer of the Solver.
	freePos            []int32
	curv               []float64
	cgR, cgZ, cgP, cgA []float64
	cgMinv             []float64

	// Scratch of the Frank-Wolfe approximation path (SolveApprox): the
	// LMO's ratio keys and index permutation.
	lmoIdx   []int32
	lmoRatio []float64

	// sh is the sharding state: when a worker pool is attached via Shard,
	// the pair sweeps (gradient, line search, Hessian products, solution
	// assembly) fan out over fixed-size pair chunks with an ordered
	// reduction, so results are bit-identical at any worker count.
	sh shardState
}

// NewSolver validates p and compiles it into a reusable workspace. The
// Solver adopts p's Start/Links/Fracs rows instead of copying them (the
// caller must not mutate them afterwards); Loads, MaxRate and Utilities
// are copied and weights normalised (entries <= 0, or no Weights at
// all, mean 1), so re-tuning never touches caller memory.
func NewSolver(p *Problem) (*Solver, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n, nPairs := len(p.Loads), p.NumPairs()
	s := &Solver{
		polytope: polytope{
			loads:  append([]float64(nil), p.Loads...),
			alpha:  fullCaps(p.MaxRate, n),
			budget: p.Budget,
		},
		model:   modelOrLinear(p.Model),
		n:       n,
		nPairs:  nPairs,
		start:   p.Start,
		links:   p.Links,
		fracs:   p.Fracs,
		utils:   slices.Clone(p.Utilities),
		wts:     make([]float64, nPairs),
		baseWts: make([]float64, nPairs),
	}
	for i, u := range s.loads {
		s.maxSampled += s.alpha[i] * u
	}
	for k := range s.baseWts {
		w := 1.0
		if p.Weights != nil && p.Weights[k] > 0 {
			w = p.Weights[k]
		}
		s.baseWts[k] = w
	}
	copy(s.wts, s.baseWts)

	s.rates = make([]float64, n)
	s.g = make([]float64, n)
	s.d = make([]float64, n)
	s.sdir = make([]float64, n)
	s.prevD = make([]float64, n)
	s.lower = make([]bool, n)
	s.upper = make([]bool, n)
	s.freePos = make([]int32, n)
	s.curv = make([]float64, nPairs)
	s.cgR = make([]float64, n)
	s.cgZ = make([]float64, n)
	s.cgP = make([]float64, n)
	s.cgA = make([]float64, n)
	s.cgMinv = make([]float64, n)
	s.lmoIdx = make([]int32, n)
	s.lmoRatio = make([]float64, n)
	return s, nil
}

// NNZ reports the number of (pair, link) incidences in the compiled
// problem — the per-sweep work of the solver's gradient and line-search
// kernels, and the size input of control's deadline cost model.
func (s *Solver) NNZ() int { return len(s.links) }

// NumPairs reports the number of compiled OD pairs.
func (s *Solver) NumPairs() int { return s.nPairs }

// NumLinks reports the candidate monitor set size.
func (s *Solver) NumLinks() int { return s.n }

// Problem returns the numeric view of the compiled problem — loads,
// materialised caps, budget and model under any Set* re-tuning, with no
// rows (they live in the compiled form only). The slices alias
// the Solver's own: read-only, and re-tune through the Set* methods.
func (s *Solver) Problem() *Problem {
	return &Problem{Loads: s.loads, MaxRate: s.alpha, Budget: s.budget, Model: s.model}
}

// SetBudget replaces the budget θ without recompiling, so a sweep or a
// per-interval loop can re-tune a compiled solver in place. Validation
// is limited to what changed: positivity and feasibility against the
// cached maximum samplable rate Σ α_i·U_i.
func (s *Solver) SetBudget(theta float64) error {
	if !(theta > 0) || math.IsInf(theta, 0) {
		return invalidInput("budget", -1, theta, "want a finite value > 0")
	}
	if theta > s.maxSampled*(1+1e-12) {
		return invalidInput("budget", -1, theta,
			fmt.Sprintf("exceeds maximum samplable rate %v (infeasible)", s.maxSampled))
	}
	s.budget = theta
	return nil
}

// SetLoads replaces the per-link loads without recompiling (successive
// measurement intervals re-optimize under drifting traffic). Validation
// is limited to what changed: positive finite loads and the budget
// staying within the new maximum samplable rate.
func (s *Solver) SetLoads(loads []float64) error {
	if len(loads) != s.n {
		return fmt.Errorf("core: %d loads for %d links", len(loads), s.n)
	}
	max := 0.0
	for i, u := range loads {
		if !(u > 0) || math.IsInf(u, 0) {
			return invalidInput("load of link", i, u, "want a finite value > 0")
		}
		max += s.alpha[i] * u
	}
	if s.budget > max*(1+1e-12) {
		return invalidInput("budget", -1, s.budget,
			fmt.Sprintf("exceeds maximum samplable rate %v under new loads (infeasible)", max))
	}
	copy(s.loads, loads)
	s.maxSampled = max
	return nil
}

// SetUtilities replaces the per-pair utilities without recompiling (a
// cached solver can be re-parameterized when the OD size estimates
// drift between intervals). The incidence structure is untouched.
func (s *Solver) SetUtilities(us []Utility) error {
	if len(us) != s.nPairs {
		return fmt.Errorf("core: %d utilities for %d pairs", len(us), s.nPairs)
	}
	for k, u := range us {
		if u == nil {
			return fmt.Errorf("core: utility %d is nil", k)
		}
	}
	copy(s.utils, us)
	return nil
}

// SetWeights replaces the per-pair objective weights without recompiling
// (the max-min solver re-tunes weights every round). Entries <= 0 mean
// weight 1, mirroring Problem.Weights; NaN and ±Inf are rejected like
// Validate rejects them, leaving the weights untouched; nil restores the
// compile-time weights.
func (s *Solver) SetWeights(w []float64) error {
	if w == nil {
		copy(s.wts, s.baseWts)
		return nil
	}
	if len(w) != s.nPairs {
		return fmt.Errorf("core: %d weights for %d pairs", len(w), s.nPairs)
	}
	for k, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return invalidInput(fmt.Sprintf("pair %d weight", k), -1, v, "want a finite value")
		}
	}
	for k, v := range w {
		if v <= 0 {
			v = 1
		}
		s.wts[k] = v
	}
	return nil
}

// Solve runs the gradient projection method and returns a freshly
// allocated Solution (safe to retain across further solves). For the
// allocation-free path reuse a Solution via SolveInto.
func (s *Solver) Solve(opt Options) (*Solution, error) {
	sol := &Solution{}
	if err := s.SolveInto(sol, opt); err != nil {
		return nil, err
	}
	return sol, nil
}

// SolveInto runs the solver, writing the result into sol. The Solution's
// slices are reused when their capacity suffices, so a Solution recycled
// across same-shaped solves makes the whole call allocation-free in
// steady state. The problem is NOT re-validated: validation happened
// once in NewSolver.
//
//netsamp:noalloc
func (s *Solver) SolveInto(sol *Solution, opt Options) error {
	n := s.n
	tol := opt.tol()

	rates := s.rates
	if err := s.initialPointInto(opt, rates); err != nil {
		return err
	}

	lower, upper := s.lower, s.upper
	s.syncActive(rates, lower, upper)

	g, d, sdir, prevD := s.g, s.d, s.sdir, s.prevD
	havePrev := false

	var stats Stats
	for stats.Iterations = 0; stats.Iterations < opt.maxIter(); stats.Iterations++ {
		s.reproject(rates, lower, upper)
		s.gradient(rates, g)

		free := countFree(lower, upper)
		if free == 0 {
			// Fully constrained vertex: optimal iff some λ satisfies all
			// bound multipliers; otherwise free the violators.
			if ok := s.vertexKKT(g, lower, upper, tol); ok {
				s.finishInto(sol, rates, g, stats, true)
				return nil
			}
			s.deactivateVertex(g, lower, upper)
			stats.Removals++
			havePrev = false
			continue
		}

		lambda := s.projectionLambda(g, lower, upper)
		for i := 0; i < n; i++ {
			if lower[i] || upper[i] {
				d[i] = 0
			} else {
				d[i] = g[i] - lambda*s.loads[i]
			}
		}

		if normInf(d) <= tol*(1+normInf(g)) {
			// (convergence test is on the unpreconditioned residual)
			// Projected gradient vanished: this is a KKT point iff every
			// active bound's multiplier has the right sign. Otherwise the
			// paper's strategy: de-activate every active constraint whose
			// multiplier is negative and resume the search.
			if s.deactivateNegative(g, lambda, lower, upper, tol) == 0 {
				s.finishInto(sol, rates, g, stats, true)
				return nil
			}
			stats.Removals++
			havePrev = false
			continue
		}

		// Precondition with the diagonal metric 1/U_i²: equivalent to
		// taking the steepest-ascent direction in sampled-rate space
		// q_i = p_i·U_i, where the budget hyperplane Σq = θ is isotropic.
		// Without it the projected gradient zig-zags badly when loads
		// span orders of magnitude. The preconditioned direction must be
		// re-projected onto the hyperplane (in the scaled metric the
		// multiplier is the mean of g_i/U_i over free coordinates).
		if !opt.DisablePreconditioner {
			nFree, lamW := 0, 0.0
			for i := 0; i < n; i++ {
				if !lower[i] && !upper[i] {
					lamW += g[i] / s.loads[i]
					nFree++
				}
			}
			lamW /= float64(nFree)
			for i := 0; i < n; i++ {
				if lower[i] || upper[i] {
					d[i] = 0
				} else {
					d[i] = (g[i] - lamW*s.loads[i]) / (s.loads[i] * s.loads[i])
				}
			}
		}

		// Second-order step: on the current active set, solve the
		// equality-constrained Newton system for the free coordinates.
		// Quadratically convergent once the active set is right — which a
		// warm start supplies immediately — and safeguarded by the same
		// bound clamping and line search as the first-order direction.
		newton := !opt.DisableSecondOrder && s.newtonInto(sdir, rates, g, lower, upper)
		if newton {
			havePrev = false // don't blend a gradient with a Newton step
		} else {
			// Polak-Ribière blend of the previous direction (Section IV-D).
			copy(sdir, d)
			if !opt.DisablePolakRibiere && havePrev {
				num, den := 0.0, 0.0
				for i := 0; i < n; i++ {
					num += d[i] * (d[i] - prevD[i])
					den += prevD[i] * prevD[i]
				}
				if den > 0 {
					beta := num / den
					if beta > 0 {
						for i := 0; i < n; i++ {
							sdir[i] = d[i] + beta*prevD[i]
						}
						// The blended direction must remain an ascent
						// direction; otherwise restart from the projection.
						if dot(sdir, g) <= 0 {
							copy(sdir, d)
						}
					}
				}
			}
			copy(prevD, d)
			havePrev = true
		}

		tMax, blocking := s.maxStep(rates, sdir, lower, upper)
		if tMax <= 0 {
			// A constraint is binding in the search direction at step
			// zero: activate it and recompute the projection.
			if blocking >= 0 {
				s.activate(rates, blocking, lower, upper)
				havePrev = false
				continue
			}
			// Direction is zero on free coordinates; should have been
			// caught by the norm test above.
			s.finishInto(sol, rates, g, stats, false)
			return nil
		}

		t, hitMax := s.lineSearch(rates, sdir, tMax, opt, newton)
		for i := 0; i < n; i++ {
			if !lower[i] && !upper[i] {
				rates[i] += t * sdir[i]
			}
		}
		if hitMax && blocking >= 0 {
			s.activate(rates, blocking, lower, upper)
			havePrev = false
		}
		s.syncActive(rates, lower, upper)
	}

	s.reproject(rates, lower, upper)
	s.gradient(rates, g)
	s.finishInto(sol, rates, g, stats, false)
	return nil
}

// newtonInto attempts the equality-constrained Newton step at rates:
// the solution of
//
//	[H   U_f] [Δ]   [−g_f]
//	[U_fᵀ  0] [ν] = [  0 ]
//
// over the free coordinates, where H is the objective Hessian
// Σ_k w_k·M_k″(ρ_k)·ā_k ā_kᵀ and U_f the loads — the budget-hyperplane
// tangency condition — computed matrix-free by truncated projected CG
// (newtonCGInto), which pins the links its path meets on the box as it
// goes. On success the step is written into out (zero on links pinned
// before the call) and newtonInto reports true; the caller still clamps
// it to the box and line-searches along it, so a poor step degrades to a
// short move, never an infeasible one. Falls out (returning false) for
// non-additive rate models, flat curvature, or a numerically non-ascent
// direction.
//
//netsamp:noalloc
func (s *Solver) newtonInto(out, rates, g []float64, lower, upper []bool) bool {
	if !s.model.Additive() {
		// The product model's Hessian has off-diagonal coupling terms
		// from ∂²ρ/∂p_i∂p_j; not worth the complexity for the ablation
		// model. The Hessian products (c·f_a·f_b per pair) are exact for
		// every additive model.
		return false
	}
	nf := 0
	for i := 0; i < s.n; i++ {
		if lower[i] || upper[i] {
			s.freePos[i] = -1
		} else {
			s.freePos[i] = int32(nf)
			nf++
		}
	}
	if nf == 0 {
		return false
	}
	return s.newtonCGInto(out, rates, g, nf)
}

// rowFracs returns pair row [lo, hi)'s fraction subslice, or nil when
// no pair carries ECMP fractions. Subslicing never allocates.
//
//netsamp:noalloc
func rowFracs(fracs []float64, lo, hi int32) []float64 {
	if fracs == nil {
		return nil
	}
	return fracs[lo:hi]
}

// rho returns the effective sampling rate of pair k at rates.
//
//netsamp:noalloc
func (s *Solver) rho(k int, rates []float64) float64 {
	lo, hi := s.start[k], s.start[k+1]
	return s.model.pairRho(s.links[lo:hi], rowFracs(s.fracs, lo, hi), rates)
}

// Every pair sweep below is written once, as a range body over the pairs
// [kLo, kHi) accumulating in ascending pair order. The serial path runs
// it over [0, nPairs); with a pool attached shardChunk runs it per chunk
// and the partials are reduced in ascending chunk order (shard.go) — so
// each mode's summation order, hence every bit, is fixed by the body.

// gradient writes ∂/∂p_i Σ_k w_k·M_k(ρ_k) into out.
//
//netsamp:noalloc
func (s *Solver) gradient(rates, out []float64) {
	for i := range out {
		out[i] = 0
	}
	if s.sh.pool == nil {
		s.gradRange(0, s.nPairs, rates, out)
		return
	}
	s.sh.vecA = rates
	s.dispatch(shardTaskGrad)
	s.reducePartials(out)
}

// gradRange adds the pairs [kLo, kHi)'s gradient terms to out.
//
//netsamp:noalloc
func (s *Solver) gradRange(kLo, kHi int, rates, out []float64) {
	for k := kLo; k < kHi; k++ {
		lo, hi := s.start[k], s.start[k+1]
		links, fracs := s.links[lo:hi], rowFracs(s.fracs, lo, hi)
		rho := s.model.pairRho(links, fracs, rates)
		d := s.wts[k] * s.utils[k].Deriv(rho)
		s.model.accumGrad(links, fracs, rates, rho, d, out)
	}
}

// objective returns Σ_k w_k·M_k(ρ_k) at rates.
//
//netsamp:noalloc
func (s *Solver) objective(rates []float64) float64 {
	obj := 0.0
	for k := 0; k < s.nPairs; k++ {
		obj += s.wts[k] * s.utils[k].Value(s.rho(k, rates))
	}
	return obj
}

// lineDerivs returns φ'(t) and φ”(t) for φ(t) = objective(rates + t·dir).
// The solver's Newton line search needs both; the per-pair terms come
// from the rate model (the product model's second derivative includes
// the curvature of ρ_k(t) itself).
//
//netsamp:noalloc
func (s *Solver) lineDerivs(rates, dir []float64, t float64) (d1, d2 float64) {
	if s.sh.pool == nil {
		return s.lineRange(0, s.nPairs, rates, dir, t)
	}
	s.sh.vecA, s.sh.vecB, s.sh.t = rates, dir, t
	s.dispatch(shardTaskLine)
	for c := 0; c < s.sh.nChunks; c++ {
		d1 += s.sh.pd1[c]
		d2 += s.sh.pd2[c]
	}
	return d1, d2
}

// lineRange sums the pairs [kLo, kHi)'s line-search terms.
//
//netsamp:noalloc
func (s *Solver) lineRange(kLo, kHi int, rates, dir []float64, t float64) (d1, d2 float64) {
	for k := kLo; k < kHi; k++ {
		lo, hi := s.start[k], s.start[k+1]
		e1, e2 := s.model.lineTerms(s.links[lo:hi], rowFracs(s.fracs, lo, hi), rates, dir, t, s.utils[k], s.wts[k])
		d1 += e1
		d2 += e2
	}
	return d1, d2
}

// lineSearch maximizes φ(t) = objective(rates + t·dir) over [0, tMax].
// See the package solver notes: φ is concave along dir under the
// additive rate models, so φ' is decreasing; safeguarded Newton with a
// bisection fallback keeps the bracket valid even under the product
// rate model.
// newtonDir marks dir as a Newton-KKT step, whose natural length is 1 —
// starting there instead of the bracket midpoint saves most of the
// search when the quadratic model is accurate.
//
//netsamp:noalloc
func (s *Solver) lineSearch(rates, dir []float64, tMax float64, opt Options, newtonDir bool) (t float64, hitMax bool) {
	d1End, _ := s.lineDerivs(rates, dir, tMax)
	if d1End >= 0 {
		return tMax, true
	}
	lo, hi := 0.0, tMax
	t = tMax / 2
	if newtonDir && tMax > 1 {
		t = 1
	}
	for iter := 0; iter < 100; iter++ {
		d1, d2 := s.lineDerivs(rates, dir, t)
		if d1 > 0 {
			lo = t
		} else {
			hi = t
		}
		if hi-lo <= 1e-14*tMax {
			break
		}
		var next float64
		if !opt.DisableNewton && d2 < 0 {
			next = t - d1/d2
		} else {
			next = math.NaN()
		}
		if math.Abs(next-t) <= 1e-15*tMax {
			// Converged. The correction can round next onto t itself —
			// the bracket end just set — so this is tested before the
			// bracket, or a converged search would bisect on to 1e-14.
			if next > lo && next < hi {
				t = next
			}
			break
		}
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		t = next
	}
	return t, false
}

// finishInto assembles the Solution at the terminal point, reusing sol's
// slices when they are large enough.
//
//netsamp:noalloc
func (s *Solver) finishInto(sol *Solution, rates, g []float64, stats Stats, converged bool) {
	lower, upper := s.lower, s.upper
	stats.Converged = converged
	lambda := s.projectionLambda(g, lower, upper)
	if countFree(lower, upper) == 0 {
		// λ is only interval-constrained at a vertex; report the midpoint
		// of the feasible interval (clamped to finite values).
		loLam, hiLam := s.lambdaInterval(g, lower, upper)
		switch {
		case !math.IsInf(loLam, 0) && !math.IsInf(hiLam, 0):
			lambda = (loLam + hiLam) / 2
		case !math.IsInf(loLam, 0):
			lambda = loLam
		case !math.IsInf(hiLam, 0):
			lambda = hiLam
		}
	}
	n := len(rates)
	sol.Rates = resizeFloats(sol.Rates, n)
	copy(sol.Rates, rates)
	sol.Rho = resizeFloats(sol.Rho, s.nPairs)
	sol.Utilities = resizeFloats(sol.Utilities, s.nPairs)
	obj := 0.0
	if s.sh.pool == nil {
		obj = s.finishRange(0, s.nPairs, rates, sol.Rho, sol.Utilities)
	} else {
		s.sh.vecA, s.sh.rhoOut, s.sh.utilOut = rates, sol.Rho, sol.Utilities
		s.dispatch(shardTaskFinish)
		for c := 0; c < s.sh.nChunks; c++ {
			obj += s.sh.pd1[c]
		}
	}
	sol.Objective = obj
	sol.GapBound = 0
	sol.Approx = false
	sol.Lambda = lambda
	sol.LowerMult = resizeFloats(sol.LowerMult, n)
	sol.UpperMult = resizeFloats(sol.UpperMult, n)
	for i := range rates {
		sol.LowerMult[i], sol.UpperMult[i] = 0, 0
		if lower[i] {
			sol.LowerMult[i] = lambda*s.loads[i] - g[i]
		}
		if upper[i] {
			sol.UpperMult[i] = g[i] - lambda*s.loads[i]
		}
	}
	sol.Stats = stats
}

// finishRange fills the pairs [kLo, kHi)'s rho and utility slots and
// returns their weighted-utility sum.
//
//netsamp:noalloc
func (s *Solver) finishRange(kLo, kHi int, rates, rhoOut, utilOut []float64) float64 {
	obj := 0.0
	for k := kLo; k < kHi; k++ {
		rho := s.rho(k, rates)
		u := s.utils[k].Value(rho)
		rhoOut[k] = rho
		utilOut[k] = u
		obj += s.wts[k] * u
	}
	return obj
}

// resizeFloats returns a slice of length n, reusing buf's storage when
// its capacity suffices.
//
//netsamp:noalloc
func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n) //netsamp:alloc-ok grow-only scratch, amortized to zero across solves
}
