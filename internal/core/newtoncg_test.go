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
	p := &Problem{Loads: make([]float64, n), MaxRate: make([]float64, n), Model: model}
	total := 0.0
	for i := range p.Loads {
		p.Loads[i] = math.Pow(10, 2+3*r.Float64())
		p.MaxRate[i] = 1
		if i%5 == 0 {
			p.MaxRate[i] = 0.002 + 0.01*r.Float64()
		}
		total += p.Loads[i] * p.MaxRate[i]
	}
	p.Budget = total * (0.002 + 0.01*r.Float64())
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
		pr := Pair{Links: links, Utility: MustSRE(math.Pow(10, -6+3*r.Float64()))}
		if fracs {
			pr.Fracs = make([]float64, len(links))
			for j := range pr.Fracs {
				pr.Fracs[j] = 0.25 + 0.75*r.Float64()
			}
		}
		p.Pairs = append(p.Pairs, pr)
	}
	return p
}

// cgStepAt evaluates both Newton steps at rates on the active set
// (lower, upper): the dense bordered-KKT one and the PCG one (called
// directly — these instances are far below denseKKTMaxFree).
func cgStepAt(t *testing.T, s *Solver, rates []float64, lower, upper []bool) (g, dense, cg []float64, ok bool) {
	t.Helper()
	g, dense, cg = make([]float64, s.n), make([]float64, s.n), make([]float64, s.n)
	s.gradient(rates, g)
	if !s.newtonInto(dense, rates, g, lower, upper) { // also fills s.freePos
		t.Fatal("dense Newton-KKT step rejected")
	}
	return g, dense, cg, s.newtonCGInto(cg, rates, g, countFree(lower, upper))
}

// checkTruncated asserts what a step stopped at the box must satisfy.
func checkTruncated(t *testing.T, s *Solver, rates, g, x []float64) {
	t.Helper()
	asc, ux, uu, xx := 0.0, 0.0, 0.0, 0.0
	onBound := false
	for i, v := range x {
		if s.freePos[i] < 0 {
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
			onBound = true
		}
	}
	if !(asc > 0) {
		t.Errorf("truncated step is not ascent: ⟨x,g⟩ = %v", asc)
	}
	if math.Abs(ux) > 1e-12*math.Sqrt(uu*xx) {
		t.Errorf("truncated step leaves the budget plane: |Uᵀx| = %v, ‖U‖‖x‖ = %v", math.Abs(ux), math.Sqrt(uu*xx))
	}
	if !onBound {
		t.Error("no coordinate of the truncated step sits exactly on its bound")
	}
	if tMax, _ := s.maxStep(rates, x, s.lower, s.upper); tMax > 1 || tMax < 1-1e-12 {
		t.Errorf("maxStep along the truncated step = %v, want 1", tMax)
	}
}

// TestNewtonCGStep pins the PCG kernel one step at a time against the
// dense bordered-KKT step of newtonInto, on instances small enough for
// both: equal when no bound interferes, a tangent ascent step ending
// exactly on the box when one does, and never pointing out of the box at
// a link that deactivateNegative just freed at its bound.
func TestNewtonCGStep(t *testing.T) {
	r := rng.New(20)
	var nFull, nCut, nFreedOutward int
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
			if next := rates[i] + dense[i]; s.freePos[i] >= 0 && (next <= 0 || next >= s.alpha[i]) {
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
		// box: the step must stop on it.
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
			checkTruncated(t, s, rates, g, cg)
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
			if s.freePos[i] < 0 || rates[i] != 0 {
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
	if nFull < 10 || nCut < 10 || nFreedOutward < 10 {
		t.Errorf("cases exercised: %d un-truncated, %d truncated, %d freed links the dense step pushes outward; want ≥ 10 each", nFull, nCut, nFreedOutward)
	}
	if ModelIndependentExact.Additive() {
		t.Error("the product model must never reach the Newton kernels")
	}
}
