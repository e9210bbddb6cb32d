package core

import (
	"math"
	"strconv"
	"testing"

	"netsamp/internal/rng"
)

// The enumeration oracle: the exact optimum of a small instance of the
// paper's program by brute force, sharing no code with Solver. Every
// assignment of each link to its lower bound, its upper bound or the free
// set is tried; on each face the equality-constrained sub-problem
//
//	max Σ_k w_k·M_k(ρ_k)   s.t.   Σ_{i free} U_i·p_i = θ − Σ_{i upper} α_i·U_i
//
// is solved by 1-D root-finding on the budget multiplier λ. For fixed λ
// the Lagrangian Σ_k w_k·M_k(ρ_k) − λ·Σ U_i·p_i is maximised over the
// free rates by Newton's method (dense elimination, solveDense); the spend
// Σ U_i·p_i(λ) is decreasing in λ, so a bracketed, safeguarded Newton
// iteration on λ finds the face's stationary point. A face whose point
// lies inside the box is feasible, and the best feasible face is the
// optimum: the true optimum's own face is among those tried. Faces whose
// free columns are linearly dependent are skipped — an optimal point on
// such a face can slide along the dependency onto a smaller face.
//
// Additive rate models only (ρ_k = c_k + Σ f_ki·p_i); the coordinated
// model's solver surrogate is the same sum. The problem is read through
// its exported fields alone — the CSR rows entry by entry — and the
// utilities through Value, Deriv and Curv.

// oracleValid is the oracle's own statement of which inputs the program
// admits: positive finite loads, caps in (0, 1], a budget in
// (0, Σ α_i·U_i], rows that partition Links, every pair on at least one
// link with a utility, no link twice in a pair, fractions in (0, 1].
func oracleValid(p *Problem) bool {
	nPairs := len(p.Start) - 1
	if len(p.Loads) == 0 || nPairs < 1 {
		return false
	}
	maxSpend := 0.0
	for i, u := range p.Loads {
		a := oracleCap(p.MaxRate, i)
		if !(u > 0) || math.IsInf(u, 0) || !(a > 0 && a <= 1) {
			return false
		}
		maxSpend += a * u
	}
	if !(p.Budget > 0) || p.Budget > maxSpend*(1+1e-12) {
		return false
	}
	if p.Start[0] != 0 || int(p.Start[nPairs]) != len(p.Links) || len(p.Utilities) != nPairs ||
		p.Fracs != nil && len(p.Fracs) != len(p.Links) || p.Weights != nil && len(p.Weights) != nPairs {
		return false
	}
	for k := 0; k < nPairs; k++ {
		lo, hi := p.Start[k], p.Start[k+1]
		if hi <= lo || int(hi) > len(p.Links) || p.Utilities[k] == nil {
			return false
		}
		seen := map[int32]bool{}
		for j := lo; j < hi; j++ {
			l := p.Links[j]
			if l < 0 || int(l) >= len(p.Loads) || seen[l] {
				return false
			}
			seen[l] = true
			if p.Fracs != nil && !(p.Fracs[j] > 0 && p.Fracs[j] <= 1) {
				return false
			}
		}
	}
	return true
}

func oracleCap(maxRate []float64, i int) float64 {
	if maxRate == nil {
		return 1
	}
	return maxRate[i]
}

func oracleFrac(p *Problem, j int32) float64 {
	if p.Fracs == nil {
		return 1
	}
	return p.Fracs[j]
}

func oracleWeight(p *Problem, k int) float64 {
	if p.Weights != nil && p.Weights[k] > 0 {
		return p.Weights[k]
	}
	return 1
}

// oracleObjective is Σ_k w_k·M_k(ρ_k) at rates.
func oracleObjective(p *Problem, rates []float64) float64 {
	obj := 0.0
	for k := 0; k < len(p.Start)-1; k++ {
		rho := 0.0
		for j := p.Start[k]; j < p.Start[k+1]; j++ {
			rho += oracleFrac(p, j) * rates[p.Links[j]]
		}
		obj += oracleWeight(p, k) * p.Utilities[k].Value(rho)
	}
	return obj
}

// extUtility continues M below ρ = 0 by its second-order Taylor
// expansion at 0, so the face sub-problems are smooth and strictly
// concave on all of ℝ. Feasible points have ρ ≥ 0, where it is M.
func extUtility(u Utility, rho float64) (v, d1, d2 float64) {
	if rho >= 0 {
		return u.Value(rho), u.Deriv(rho), u.Curv(rho)
	}
	v0, g0, c0 := u.Value(0), u.Deriv(0), u.Curv(0)
	return v0 + g0*rho + 0.5*c0*rho*rho, g0 + c0*rho, c0
}

// solveDense solves the m×m row-major system a·x = b by Gaussian
// elimination with partial pivoting, overwriting a and b (b becomes x).
// It reports false when a pivot falls below 1e-12 of the largest entry.
func solveDense(a, b []float64, m int) bool {
	scale := 0.0
	for _, v := range a {
		scale = math.Max(scale, math.Abs(v))
	}
	for c := 0; c < m; c++ {
		piv := c
		for r := c + 1; r < m; r++ {
			if math.Abs(a[r*m+c]) > math.Abs(a[piv*m+c]) {
				piv = r
			}
		}
		if !(math.Abs(a[piv*m+c]) > 1e-12*scale) {
			return false
		}
		for k := 0; k < m; k++ {
			a[c*m+k], a[piv*m+k] = a[piv*m+k], a[c*m+k]
		}
		b[c], b[piv] = b[piv], b[c]
		for r := c + 1; r < m; r++ {
			f := a[r*m+c] / a[c*m+c]
			for k := c; k < m; k++ {
				a[r*m+k] -= f * a[c*m+k]
			}
			b[r] -= f * b[c]
		}
	}
	for r := m - 1; r >= 0; r-- {
		v := b[r]
		for k := r + 1; k < m; k++ {
			v -= a[r*m+k] * b[k]
		}
		b[r] = v / a[r*m+r]
	}
	return true
}

// oracleFace is one face's sub-problem over the free links F.
type oracleFace struct {
	p     *Problem
	free  []int     // link indices of F
	col   []int     // link → position in F, or −1
	base  []float64 // ρ_k contribution of the links at their upper bound
	theta float64   // budget left for F
}

// lagrangian returns Σ w·M̃(ρ) − λ·Σ U·x, its gradient and Hessian
// over F at x.
func (f *oracleFace) lagrangian(x []float64, lambda float64, grad, hess []float64) float64 {
	nf := len(f.free)
	for i := range grad {
		grad[i] = -lambda * f.p.Loads[f.free[i]]
	}
	for i := range hess {
		hess[i] = 0
	}
	val := 0.0
	for i, l := range f.free {
		val -= lambda * f.p.Loads[l] * x[i]
	}
	p := f.p
	for k := 0; k < len(p.Start)-1; k++ {
		lo, hi := p.Start[k], p.Start[k+1]
		rho := f.base[k]
		for j := lo; j < hi; j++ {
			if c := f.col[p.Links[j]]; c >= 0 {
				rho += oracleFrac(p, j) * x[c]
			}
		}
		w := oracleWeight(p, k)
		v, d1, d2 := extUtility(p.Utilities[k], rho)
		val += w * v
		for ja := lo; ja < hi; ja++ {
			a := f.col[p.Links[ja]]
			if a < 0 {
				continue
			}
			fa := oracleFrac(p, ja)
			grad[a] += w * d1 * fa
			for jb := lo; jb < hi; jb++ {
				if b := f.col[p.Links[jb]]; b >= 0 {
					hess[a*nf+b] += w * d2 * fa * oracleFrac(p, jb)
				}
			}
		}
	}
	return val
}

// inner maximises the Lagrangian at λ from x (updated in place) by
// damped Newton, writes dx/dλ = H⁻¹U_F into dxdl and returns the spend
// derivative ∂(Σ U·x)/∂λ = U_Fᵀ H⁻¹ U_F (negative). ok is false when
// the Hessian is singular on F.
func (f *oracleFace) inner(x, dxdl []float64, lambda float64) (dSpend float64, ok bool) {
	nf := len(f.free)
	grad, hess := make([]float64, nf), make([]float64, nf*nf)
	trial, tg, th := make([]float64, nf), make([]float64, nf), make([]float64, nf*nf)
	step, h := make([]float64, nf), make([]float64, nf*nf)
	for it := 0; it < 200; it++ {
		val := f.lagrangian(x, lambda, grad, hess)
		copy(h, hess)
		for i := range step {
			step[i] = -grad[i]
		}
		if !solveDense(h, step, nf) {
			return 0, false
		}
		xMax, stepMax := 0.0, 0.0
		for i := range x {
			xMax = math.Max(xMax, math.Abs(x[i]))
			stepMax = math.Max(stepMax, math.Abs(step[i]))
		}
		if stepMax <= 1e-15*xMax {
			break
		}
		// Backtrack on the Lagrangian; a step that no longer changes it
		// measurably is taken whole (the quadratic convergence phase).
		t := 1.0
		for try := 0; try < 60; try++ {
			for i := range trial {
				trial[i] = x[i] + t*step[i]
			}
			if f.lagrangian(trial, lambda, tg, th) >= val-1e-14*math.Abs(val) {
				break
			}
			t /= 2
		}
		copy(x, trial)
	}
	f.lagrangian(x, lambda, grad, hess)
	for i, l := range f.free {
		dxdl[i] = f.p.Loads[l]
	}
	if !solveDense(hess, dxdl, nf) {
		return 0, false
	}
	for i, l := range f.free {
		dSpend += f.p.Loads[l] * dxdl[i]
	}
	return dSpend, dSpend < 0
}

// solve finds the face's stationary point: x on F and λ with
// Σ U·x = θ_F. ok is false for a singular face.
func (f *oracleFace) solve() (x []float64, ok bool) {
	nf := len(f.free)
	x = make([]float64, nf)
	dxdl := make([]float64, nf)
	uu := 0.0
	for _, l := range f.free {
		uu += f.p.Loads[l] * f.p.Loads[l]
	}
	for i, l := range f.free {
		x[i] = f.theta * f.p.Loads[l] / uu
	}
	grad, hess := make([]float64, nf), make([]float64, nf*nf)
	f.lagrangian(x, 0, grad, hess)
	lambda := 0.0
	for i, l := range f.free {
		lambda += grad[i] * f.p.Loads[l] / uu
	}
	if !(lambda > 0) {
		lambda = 1
	}
	// h(λ) = Σ U·x(λ) − θ_F, decreasing in λ > 0, and its derivative.
	h := func(lam float64) (v, d float64, ok bool) {
		if d, ok = f.inner(x, dxdl, lam); !ok {
			return 0, 0, false
		}
		v = -f.theta
		for i, l := range f.free {
			v += f.p.Loads[l] * x[i]
		}
		return v, d, true
	}
	// Bracket the root.
	lo, hi := lambda, lambda
	for i := 0; ; i++ {
		v, _, ok := h(lo)
		if !ok || i > 1100 {
			return nil, false
		}
		if v >= 0 {
			break
		}
		lo /= 2
	}
	for i := 0; ; i++ {
		v, _, ok := h(hi)
		if !ok || i > 1100 {
			return nil, false
		}
		if v <= 0 {
			break
		}
		hi *= 2
	}
	// Safeguarded Newton on λ. For a small θ_F the root sits where λ
	// cannot resolve x to full relative precision (x ∝ θ_F while λ stays
	// O(M'(0)/U)), so the iteration stops once the Newton correction is
	// below λ's ulp and the last Δλ is applied to x to first order,
	// x ← x + Δλ·dx/dλ — exact up to O(Δλ²).
	lam := lambda
	for it := 0; ; it++ {
		v, d, ok := h(lam)
		if !ok || it > 400 {
			return nil, false
		}
		dl := -v / d
		if math.Abs(dl) <= 1e-12*lam || hi-lo <= 1e-15*hi {
			for i := range x {
				x[i] += dl * dxdl[i]
			}
			return x, true
		}
		if v > 0 {
			lo = lam
		} else {
			hi = lam
		}
		next := lam + dl
		if !(next > lo && next < hi) {
			next = (lo + hi) / 2
		}
		lam = next
	}
}

// enumerateOptimum returns the optimum of p (which must be valid, with
// at most a dozen links) over every face, and the optimal rates.
func enumerateOptimum(p *Problem) (best float64, bestRates []float64, found bool) {
	n := len(p.Loads)
	faces := 1
	for i := 0; i < n; i++ {
		faces *= 3
	}
	state := make([]int, n) // 0 lower, 1 upper, 2 free
	onPair := make([]bool, n)
	for _, l := range p.Links {
		onPair[l] = true
	}
	best = math.Inf(-1)
	rates := make([]float64, n)
	for code := 0; code < faces; code++ {
		c := code
		for i := range state {
			state[i] = c % 3
			c /= 3
		}
		f := oracleFace{p: p, col: make([]int, n), base: make([]float64, len(p.Start)-1), theta: p.Budget}
		freeCap, nOff := 0.0, 0
		for i := 0; i < n; i++ {
			f.col[i] = -1
			rates[i] = 0
			switch state[i] {
			case 1:
				rates[i] = oracleCap(p.MaxRate, i)
				f.theta -= rates[i] * p.Loads[i]
			case 2:
				f.col[i] = len(f.free)
				f.free = append(f.free, i)
				freeCap += oracleCap(p.MaxRate, i) * p.Loads[i]
				if !onPair[i] {
					nOff++
				}
			}
		}
		slack := 1e-12 * p.Budget
		if f.theta < -slack || f.theta > freeCap+slack {
			continue
		}
		switch {
		case len(f.free) == 0:
			if math.Abs(f.theta) > slack {
				continue
			}
		case nOff == len(f.free):
			// Every free link is on no pair: the objective ignores them,
			// and any split of the remaining budget among them is optimal.
			for _, l := range f.free {
				rates[l] = math.Min(oracleCap(p.MaxRate, l), oracleCap(p.MaxRate, l)*f.theta/freeCap)
			}
		case nOff > 0:
			// A free link on no pair has zero gradient, so stationarity
			// forces λ = 0, which no free link on a pair can satisfy
			// (M' > 0).
			continue
		default:
			if !(f.theta > 0) {
				continue // only the all-zero point fits, and that face is tried on its own
			}
			for k := range f.base {
				for j := p.Start[k]; j < p.Start[k+1]; j++ {
					if l := p.Links[j]; state[l] == 1 {
						f.base[k] += oracleFrac(p, j) * rates[l]
					}
				}
			}
			x, ok := f.solve()
			if !ok {
				continue
			}
			inside := true
			for i, l := range f.free {
				a := oracleCap(p.MaxRate, l)
				if x[i] < -1e-12 || x[i] > a+1e-12 {
					inside = false
				}
				rates[l] = math.Min(math.Max(x[i], 0), a)
			}
			if !inside {
				continue
			}
		}
		if obj := oracleObjective(p, rates); obj > best {
			best, found = obj, true
			bestRates = append(bestRates[:0], rates...)
		}
	}
	return best, bestRates, found
}

// enumInstance draws a small instance. Flags choose the degenerate
// shapes: 1 ECMP fractions, 2 the coordinated model, 4 pair weights,
// 8 a parallel link (same pairs as another link), 16 a budget at its
// upper bound, 32 a budget near zero, 64 tiny loads on some links,
// 128 one of the invalid inputs (zero load, zero cap, a link twice in
// a pair, a pair on no link, a budget beyond Σ α·U).
func enumInstance(r *rng.Source, n int, flags uint8) *Problem {
	p := &instance{Loads: make([]float64, n), Model: ModelLinear}
	if flags&2 != 0 {
		p.Model = ModelCoordinated
	}
	if r.Bernoulli(0.5) {
		p.MaxRate = make([]float64, n)
	}
	maxSpend := 0.0
	for i := range p.Loads {
		p.Loads[i] = math.Pow(10, 1+3*r.Float64())
		if flags&64 != 0 && r.Bernoulli(0.3) {
			p.Loads[i] = 1e-6 * (1 + r.Float64())
		}
		if p.MaxRate != nil {
			p.MaxRate[i] = 1
			if r.Bernoulli(0.6) {
				p.MaxRate[i] = 0.001 + 0.3*r.Float64()
			}
		}
		maxSpend += oracleCap(p.MaxRate, i) * p.Loads[i]
	}
	nPairs := 1 + r.Intn(2*n)
	for k := 0; k < nPairs; k++ {
		hops := 1 + r.Intn(3)
		if hops > n {
			hops = n
		}
		pr := pair{Links: r.Perm(n)[:hops], Utility: MustSRE(math.Pow(10, -4+3*r.Float64()))}
		if flags&1 != 0 {
			pr.Fracs = make([]float64, hops)
			for j := range pr.Fracs {
				pr.Fracs[j] = 1
				if r.Bernoulli(0.5) {
					pr.Fracs[j] = 0.2 + 0.8*r.Float64()
				}
			}
		}
		if flags&4 != 0 {
			pr.Weight = 0.5 + 2*r.Float64()
		}
		p.Pairs = append(p.Pairs, pr)
	}
	if flags&8 != 0 && n >= 2 {
		// Link b mirrors link a's pair memberships (fraction 1 on both, so
		// the two columns are equal); with probability ½ it shares the load.
		a, b := 0, 1
		for k := range p.Pairs {
			pr := &p.Pairs[k]
			var links []int
			var fracs []float64
			for j, l := range pr.Links {
				if l == b {
					continue
				}
				links = append(links, l)
				if pr.Fracs != nil {
					fracs = append(fracs, pr.Fracs[j])
				}
				if l == a {
					links = append(links, b)
					if pr.Fracs != nil {
						fracs[len(fracs)-1] = 1
						fracs = append(fracs, 1)
					}
				}
			}
			if len(links) == 0 {
				links, fracs = []int{a, b}, nil
				if pr.Fracs != nil {
					fracs = []float64{1, 1}
				}
			}
			pr.Links, pr.Fracs = links, fracs
		}
		if r.Bernoulli(0.5) {
			p.Loads[b] = p.Loads[a]
		}
		maxSpend = 0
		for i := range p.Loads {
			maxSpend += oracleCap(p.MaxRate, i) * p.Loads[i]
		}
	}
	switch {
	case flags&16 != 0:
		p.Budget = maxSpend
	case flags&32 != 0:
		p.Budget = 1e-9 * maxSpend
	default:
		p.Budget = maxSpend * math.Pow(10, -4+4*r.Float64()) * 0.9
	}
	if flags&128 != 0 {
		switch r.Intn(5) {
		case 0:
			p.Loads[r.Intn(n)] = 0
		case 1:
			if p.MaxRate == nil {
				p.MaxRate = make([]float64, n)
				for i := range p.MaxRate {
					p.MaxRate[i] = 1
				}
			}
			p.MaxRate[r.Intn(n)] = 0
		case 2:
			pr := &p.Pairs[r.Intn(len(p.Pairs))]
			pr.Links = append(pr.Links, pr.Links[0])
			if pr.Fracs != nil {
				pr.Fracs = append(pr.Fracs, 1)
			}
		case 3:
			p.Pairs[r.Intn(len(p.Pairs))] = pair{Utility: MustSRE(0.01)}
		case 4:
			p.Budget = maxSpend * 1.01
		}
	}
	return p.problem()
}

// checkAgainstEnumeration holds Solve to the oracle. A rejected input
// must be one the oracle rejects too. An accepted one is solved twice:
// at the default tolerance it must converge to a feasible point no better
// than the enumerated optimum, and at Tol 1e-10 its objective must agree
// with the optimum to 1e-9 relative. (The default tolerance certifies
// bound multipliers only to 1e-6·(1+‖g‖∞), so a link with a tiny load may
// stay pinned on the wrong side of a nearly flat trade; that costs the
// objective up to ≈1e-5 relative on the tiny-load instances here.)
func checkAgainstEnumeration(t *testing.T, name string, p *Problem) {
	t.Helper()
	valid := oracleValid(p)
	sol, err := Solve(p, Options{})
	if !valid {
		if err == nil {
			t.Errorf("%s: Solve accepted an input the oracle rejects", name)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: Solve rejected a valid input: %v", name, err)
		return
	}
	tight, err := Solve(p, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	want, rates, ok := enumerateOptimum(p)
	if !ok {
		t.Errorf("%s: the oracle found no feasible face", name)
		return
	}
	for _, s := range []*Solution{sol, tight} {
		if !s.Stats.Converged {
			t.Errorf("%s: did not converge in %d iterations", name, s.Stats.Iterations)
		}
		spend := 0.0
		for i, v := range s.Rates {
			if v < 0 || v > oracleCap(p.MaxRate, i) {
				t.Errorf("%s: rate[%d] = %v outside [0, %v]", name, i, v, oracleCap(p.MaxRate, i))
			}
			spend += v * p.Loads[i]
		}
		// The solver holds the budget to 1e-12·θ (fixBudget).
		if math.Abs(spend-p.Budget) > 1e-9*p.Budget {
			t.Errorf("%s: spend %v, budget %v", name, spend, p.Budget)
		}
	}
	if got := oracleObjective(p, sol.Rates); got > want+1e-9*math.Abs(want) {
		t.Errorf("%s: objective %.17g beats the enumerated optimum %.17g", name, got, want)
	}
	got := oracleObjective(p, tight.Rates)
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("%s: objective %.17g, enumerated optimum %.17g (rel %.3g)\nsolver rates %v\noracle rates %v",
			name, got, want, (got-want)/math.Abs(want), tight.Rates, rates)
	}
}

// TestSolveMatchesEnumeration holds Solve to the brute-force optimum on
// 1–8-link instances across both additive models, with and without ECMP
// fractions and weights, and on every degenerate shape enumInstance
// draws.
func TestSolveMatchesEnumeration(t *testing.T) {
	r := rng.New(27)
	trials := 400
	if testing.Short() {
		trials = 80
	}
	for trial := 0; trial < trials; trial++ {
		n := 1 + r.Intn(6)
		if trial%40 == 0 {
			n = 8
		}
		flags := uint8(r.Intn(128))
		if trial%10 == 9 {
			flags |= 128
		}
		checkAgainstEnumeration(t, "trial "+strconv.Itoa(trial), enumInstance(r, n, flags))
	}
}

// FuzzSolveAgainstEnumeration is the same check over fuzzed seeds, link
// counts and degenerate-shape flags.
func FuzzSolveAgainstEnumeration(f *testing.F) {
	for i, flags := range []uint8{0, 1, 2, 3, 4, 8, 9, 16, 32, 64, 128, 129, 255} {
		f.Add(uint64(i), uint8(1+i%8), flags)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n, flags uint8) {
		links := 1 + int(n)%8
		checkAgainstEnumeration(t, "fuzz", enumInstance(rng.New(seed), links, flags))
	})
}
