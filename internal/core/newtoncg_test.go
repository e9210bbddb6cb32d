package core

import (
	"math"
	"testing"

	"netsamp/internal/rng"
)

// cgStepProblem draws a 20–200-link additive instance: loads over three
// decades, 1–4-hop pairs covering every link, optional ECMP fractions,
// and a cap α_i < 1 on every fifth link so upper bounds get pinned too.
func cgStepProblem(r *rng.Source, model RateModel, fracs bool) *Problem {
	n := 20 + r.Intn(181)
	in := &instance{Loads: make([]float64, n), MaxRate: make([]float64, n), Model: model}
	total := 0.0
	for i := range in.Loads {
		in.Loads[i] = math.Pow(10, 2+3*r.Float64())
		in.MaxRate[i] = 1
		if i%5 == 0 {
			in.MaxRate[i] = 0.002 + 0.01*r.Float64()
		}
		total += in.Loads[i] * in.MaxRate[i]
	}
	in.Budget = total * (0.002 + 0.01*r.Float64())
	for k := 0; k < 2*n; k++ {
		// Pair k starts on link k mod n, so every link carries a pair and
		// the dense KKT matrix is never singular.
		hops := 1 + r.Intn(4)
		links := []int{k % n}
		for _, l := range r.Perm(n)[:hops] {
			if l != k%n && len(links) < hops {
				links = append(links, l)
			}
		}
		pr := pair{Links: links, Utility: MustSRE(math.Pow(10, -6+3*r.Float64()))}
		if fracs {
			pr.Fracs = make([]float64, len(links))
			for j := range pr.Fracs {
				pr.Fracs[j] = 0.25 + 0.75*r.Float64()
			}
		}
		in.Pairs = append(in.Pairs, pr)
	}
	return in.problem()
}

// denseNewtonStep is the reference Newton step: the bordered KKT system
//
//	[H   U_f] [Δ]   [−g_f]
//	[U_fᵀ  0] [ν] = [  0 ]
//
// over the links free in (lower, upper), assembled entry by entry from
// the pair rows and eliminated densely — the step the solver computed
// this way below 512 free links before the CG solve became the only one.
func denseNewtonStep(t *testing.T, s *Solver, rates, g []float64, lower, upper []bool) []float64 {
	t.Helper()
	pos := make([]int, s.n)
	nf := 0
	for i := range pos {
		pos[i] = -1
		if !lower[i] && !upper[i] {
			pos[i] = nf
			nf++
		}
	}
	m := nf + 1
	K, rhs := make([]float64, m*m), make([]float64, m)
	frac := func(j int32) float64 {
		if s.fracs == nil {
			return 1
		}
		return s.fracs[j]
	}
	for k := 0; k < s.nPairs; k++ {
		lo, hi := s.start[k], s.start[k+1]
		rho := 0.0
		for j := lo; j < hi; j++ {
			rho += frac(j) * rates[s.links[j]]
		}
		c := s.wts[k] * s.utils[k].Curv(rho)
		for a := lo; a < hi; a++ {
			for b := lo; b < hi; b++ {
				if ia, ib := pos[s.links[a]], pos[s.links[b]]; ia >= 0 && ib >= 0 {
					K[ia*m+ib] += c * frac(a) * frac(b)
				}
			}
		}
	}
	for i, j := range pos {
		if j >= 0 {
			K[j*m+nf], K[nf*m+j] = s.loads[i], s.loads[i]
			rhs[j] = -g[i]
		}
	}
	if !solveDense(K, rhs, m) {
		t.Fatal("dense Newton-KKT system is singular")
	}
	step := make([]float64, s.n)
	for i, j := range pos {
		if j >= 0 {
			step[i] = rhs[j]
		}
	}
	return step
}

// cgStepAt evaluates both Newton steps at rates on the active set
// (lower, upper): the dense reference and the solver's own (newtonInto,
// which also fills s.freePos and leaves the links its CG path pinned
// at −1 there).
func cgStepAt(t *testing.T, s *Solver, rates []float64, lower, upper []bool) (g, dense, cg []float64, ok bool) {
	t.Helper()
	g, cg = make([]float64, s.n), make([]float64, s.n)
	s.gradient(rates, g)
	dense = denseNewtonStep(t, s, rates, g, lower, upper)
	return g, dense, cg, s.newtonInto(cg, rates, g, lower, upper)
}

// modelSlope is φ_q'(1) = gᵀx − xᵀA·x, the slope at the far end of the
// step x of the quadratic model the CG solve works on, with
// xᵀA·x = Σ_k (−c_k)·(ā_kᵀx)² summed pair by pair from s.curv (filled
// at rates by the step just taken).
func modelSlope(s *Solver, g, x []float64) float64 {
	v := dot(g, x)
	for k := 0; k < s.nPairs; k++ {
		ax := 0.0
		for j := s.start[k]; j < s.start[k+1]; j++ {
			f := 1.0
			if s.fracs != nil {
				f = s.fracs[j]
			}
			ax += f * x[s.links[j]]
		}
		v += s.curv[k] * ax * ax
	}
	return v
}

// checkTruncated asserts what a step that met the box must satisfy: it
// moves no link pinned before the call, stays in the box and on the
// budget plane, ascends, lands at least one link exactly on a bound
// (maxStep reads exactly 1), and its quadratic model still ascends at
// the far end, so the outer line search takes all of it. It returns how
// many links landed on a bound.
func checkTruncated(t *testing.T, s *Solver, rates, g, x []float64, lower, upper []bool) int {
	t.Helper()
	asc, ux, uu, xx := 0.0, 0.0, 0.0, 0.0
	onBound := 0
	for i, v := range x {
		if lower[i] || upper[i] {
			if v != 0 {
				t.Fatalf("pinned link %d moves by %v", i, v)
			}
			continue
		}
		asc += v * g[i]
		ux += s.loads[i] * v
		uu += s.loads[i] * s.loads[i]
		xx += v * v
		if next := rates[i] + v; next < -1e-15 || next > s.alpha[i]+1e-15 {
			t.Errorf("link %d leaves the box: %v + %v outside [0, %v]", i, rates[i], v, s.alpha[i])
		}
		if v != 0 && (v == -rates[i] || v == s.alpha[i]-rates[i]) {
			onBound++
		}
	}
	if !(asc > 0) {
		t.Errorf("truncated step is not ascent: ⟨x,g⟩ = %v", asc)
	}
	if math.Abs(ux) > 1e-12*math.Sqrt(uu*xx) {
		t.Errorf("truncated step leaves the budget plane: |Uᵀx| = %v, ‖U‖‖x‖ = %v", math.Abs(ux), math.Sqrt(uu*xx))
	}
	if onBound == 0 {
		t.Error("no coordinate of the truncated step sits exactly on its bound")
	}
	if tMax, _ := s.maxStep(rates, x, lower, upper); tMax > 1 || tMax < 1-1e-12 {
		t.Errorf("maxStep along the truncated step = %v, want 1", tMax)
	}
	if slope := modelSlope(s, g, x); slope < -1e-12*asc {
		t.Errorf("the quadratic model descends at the end of the step: slope %v (⟨x,g⟩ = %v)", slope, asc)
	}
	return onBound
}

// TestNewtonCGStep pins the PCG step one call at a time against the
// dense bordered-KKT reference, on instances small enough for both:
// equal when no bound interferes; from a cold start, a tangent ascent
// step that pins links exactly on the box — several in one step — and
// whose model still ascends at its end; and never pointing out of the box
// at a link that deactivateNegative just freed at its bound.
func TestNewtonCGStep(t *testing.T) {
	r, rStart := rng.New(20), rng.New(21)
	var nFull, nCut, nMulti, nFreedOutward int
	for trial := 0; trial < 48; trial++ {
		model, fracs := ModelLinear, trial&1 == 1
		if trial&2 != 0 {
			model = ModelCoordinated
		}
		s, err := NewSolver(cgStepProblem(r, model, fracs))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Stats.Converged {
			continue
		}
		n := s.n
		rates, lower, upper := make([]float64, n), s.lower, s.upper

		// Near the optimum, on its active set: the Newton step is short and
		// no bound interferes.
		copy(rates, sol.Rates)
		s.syncActive(rates, lower, upper)
		for i := range rates {
			if !lower[i] && !upper[i] {
				rates[i] *= 1 + 0.01*(2*r.Float64()-1)
			}
		}
		s.fixBudget(rates, lower, upper)
		g, dense, cg, ok := cgStepAt(t, s, rates, lower, upper)
		inside := true
		for i := range dense {
			if next := rates[i] + dense[i]; !lower[i] && !upper[i] && (next <= 0 || next >= s.alpha[i]) {
				inside = false
			}
		}
		if inside {
			// One call stops at cgResidualRel = 1e-4 of the preconditioned
			// residual; a second call on what is left (iterative refinement,
			// A·x from the kernel's own cached curvatures) squares that, and
			// the sum must be the dense step.
			nFull++
			ax, g2, cg2 := make([]float64, n), make([]float64, n), make([]float64, n)
			s.hessMulInto(cg, ax)
			for i := range g2 {
				g2[i] = g[i] - ax[i]
			}
			s.newtonCGInto(cg2, rates, g2, countFree(lower, upper))
			diff1, diff2, norm := 0.0, 0.0, 0.0
			for i := range dense {
				diff1 = math.Max(diff1, math.Abs(cg[i]-dense[i]))
				diff2 = math.Max(diff2, math.Abs(cg[i]+cg2[i]-dense[i]))
				norm = math.Max(norm, math.Abs(dense[i]))
			}
			if !ok || diff1 > 1e-2*norm || diff2 > 1e-6*norm {
				t.Errorf("trial %d: PCG step differs from the dense KKT step (max %v) by %v, refined by %v (ok=%v)", trial, norm, diff1, diff2, ok)
			}
		}

		// From the cold waterfilling point most links want to leave the
		// box: the step must stop on it, pinning as it goes.
		if err := s.initialPointInto(Options{}, rates); err != nil {
			t.Fatal(err)
		}
		s.syncActive(rates, lower, upper)
		g, dense, cg, ok = cgStepAt(t, s, rates, lower, upper)
		if tMax, _ := s.maxStep(rates, dense, lower, upper); tMax < 1 {
			nCut++
			if !ok {
				t.Errorf("trial %d: truncated step rejected", trial)
			}
			if checkTruncated(t, s, rates, g, cg, lower, upper) > 1 {
				nMulti++
			}
		}

		// From a random point of the box on the budget plane the path
		// meets the box mid-way through CG more often than at its first
		// step, and continuing past a pin can turn the model downhill at
		// the far end: that is where the step must stop short instead.
		spend := 0.0
		for i := range rates {
			rates[i] = s.alpha[i] * rStart.Float64()
			spend += rates[i] * s.loads[i]
		}
		for i := range rates {
			rates[i] *= s.budget / spend
		}
		s.fixBudget(rates, nil, nil)
		s.syncActive(rates, lower, upper)
		g, _, cg, ok = cgStepAt(t, s, rates, lower, upper)
		pinnedOnPath := false
		for i, pos := range s.freePos {
			pinnedOnPath = pinnedOnPath || (pos < 0 && !lower[i] && !upper[i])
		}
		if ok && pinnedOnPath {
			nCut++
			if checkTruncated(t, s, rates, g, cg, lower, upper) > 1 {
				nMulti++
			}
		}

		// The livelock guard. At the optimum, shrink the load of links
		// pinned at zero until their multiplier λU_i − g_i is negative —
		// the point stays stationary on the free subspace — and free them
		// as deactivateNegative does. The full Newton step may push such a
		// link below zero; the CG path must stop there instead, or
		// maxStep returns 0, the link is re-pinned, and the solver is back
		// at the same stationary point.
		copy(rates, sol.Rates)
		s.syncActive(rates, lower, upper)
		s.gradient(rates, g)
		loads := append([]float64(nil), s.loads...)
		for i := range rates {
			if lower[i] && g[i] > 0 && r.Bernoulli(0.5) {
				loads[i] = (0.2 + 0.75*r.Float64()) * g[i] / sol.Lambda
			}
		}
		if err := s.SetLoads(loads); err != nil {
			t.Fatal(err)
		}
		if s.deactivateNegative(g, sol.Lambda, lower, upper, 1e-6) == 0 {
			continue
		}
		_, dense, cg, _ = cgStepAt(t, s, rates, lower, upper)
		for i := range rates {
			if lower[i] || upper[i] || rates[i] != 0 {
				continue
			}
			if dense[i] < 0 {
				nFreedOutward++
			}
			if cg[i] < 0 {
				t.Errorf("trial %d: link %d, freed at zero, gets step component %v", trial, i, cg[i])
			}
		}
	}
	if nFull < 10 || nCut < 10 || nMulti < 10 || nFreedOutward < 10 {
		t.Errorf("cases exercised: %d un-truncated, %d truncated (%d pinning several links), %d freed links the dense step pushes outward; want ≥ 10 each", nFull, nCut, nMulti, nFreedOutward)
	}
	if ModelIndependentExact.Additive() {
		t.Error("the product model must never reach the Newton kernels")
	}
}
