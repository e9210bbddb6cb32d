package core

import "math"

// The Newton step, matrix-free at every size. For additive rate models
// the objective Hessian is the low-rank sum
//
//	H = Σ_k c_k · ā_k ā_kᵀ,   c_k = w_k·M_k″(ρ_k) ≤ 0,
//
// so Hessian-vector products cost one CSR sweep (two passes per row) and
// the equality-constrained Newton system
//
//	H Δ = −g_f,  U_fᵀ Δ = 0
//
// can be solved by projected conjugate gradients on the budget
// hyperplane's tangent space, where A = −H is positive semi-definite
// (strictly positive along the directions that matter, since every
// pair's curvature is ≤ 0 and the line search safeguards the rest).
// Memory is O(n + nPairs); no pair×link intermediate and no dense system
// is ever materialized, and the per-iteration cost is linear in the
// routing matrix's nonzeros. Two things make the inner solve cheap and
// the outer iteration count small:
//
//   - Jacobi preconditioning. M = diag(A), h_i = Σ_k (−c_k)·a_ki², read
//     off the same curvature cache the products use. The budget
//     projection is taken in that metric, z = M⁻¹r − τ·M⁻¹U_f with
//     τ = U_fᵀM⁻¹r / U_fᵀM⁻¹U_f, so every direction stays tangent.
//   - Pinning on the box as the path goes (Lin–Moré projected search;
//     Bertsekas's two-metric projection). The CG path is followed until
//     rates + x meets the box; x stops ON the boundary with the blocking
//     coordinate assigned exactly, that link leaves the free set, the
//     residual g − A·x is recomputed on what is left, re-projected onto
//     the tangent space, and CG restarts from x. A cold start pins many
//     links in one Newton step: the outer loop's maxStep then reads 1,
//     the line search takes the whole step, and syncActive pins every
//     link that landed on a bound. The path never crosses a bound and
//     stops (which would livelock the outer loop on a link that
//     deactivateNegative just freed): a link is either inside the box or
//     exactly on it. The quadratic model's slope at the far end of the
//     step, φ_q'(1) = gᵀx − xᵀA·x, is tracked as the path goes; after
//     the first pin the path stops before a CG step that would turn it
//     negative, so the outer line search still reaches the pins. Once the
//     active set has settled no bound interferes and the solve runs to
//     its residual target, which is what makes the last Newton steps
//     quadratic. The certificates are the outer loop's — projected-
//     gradient norm, multiplier signs — and do not depend on the path.

// cgMaxIter caps the Hessian products per Newton step, the residual
// recomputations after a pin included. The step is used as a safeguarded
// search direction, so an inexact solve only costs line-search progress,
// never correctness.
const cgMaxIter = 128

// cgResidualRel is the relative target ‖r‖ ≤ rel·‖r₀‖ — in the
// preconditioned norm √(rᵀz) — at which the CG solve is accepted.
const cgResidualRel = 1e-4

// cgDiagFloorRel floors the Jacobi diagonal at this fraction of its
// largest free entry: a link whose pairs all sit on flat curvature would
// otherwise get an unbounded preconditioned step.
const cgDiagFloorRel = 1e-12

// newtonCGInto computes the equality-constrained Newton step at rates by
// Jacobi-preconditioned projected CG, pinning each link where the CG
// path meets the box and continuing on the rest, and writes it into out
// (zero on links pinned before the call), reporting whether out is a
// usable ascent direction. s.freePos must be current (newtonInto fills
// it); links pinned on the way leave it at −1. Only called for additive
// models — newtonInto has already rejected the rest.
//
//netsamp:noalloc
func (s *Solver) newtonCGInto(out, rates, g []float64, nf int) bool {
	n := s.n
	s.curvFill(rates)
	minv := s.cgMinv
	s.hessDiagInto(minv)
	hMax := 0.0
	for i := 0; i < n; i++ {
		if s.freePos[i] >= 0 && minv[i] > hMax {
			hMax = minv[i]
		}
	}
	if !(hMax > 0) {
		// Curvature flat on every free link: no second-order information.
		return false
	}
	floor := cgDiagFloorRel * hMax
	for i := 0; i < n; i++ {
		if s.freePos[i] < 0 {
			minv[i] = 0
			continue
		}
		minv[i] = 1 / math.Max(minv[i], floor)
	}
	// Every step the solve builds is tangent (Uᵀx = 0), so its ascent
	// gᵀx equals (g − λ₀U)ᵀx for any λ₀. Near the optimum g is far larger
	// than its tangent part, and gᵀx would be lost to cancellation; the
	// shift by λ₀ = U_fᵀM⁻¹g / U_fᵀM⁻¹U_f keeps the sums at the scale of
	// the projected gradient.
	lamNum, lamDen := 0.0, 0.0
	for i := 0; i < n; i++ {
		lamNum += s.loads[i] * minv[i] * g[i]
		lamDen += s.loads[i] * s.loads[i] * minv[i]
	}
	lam0 := lamNum / lamDen
	x, r, z, cp, ap := out, s.cgR, s.cgZ, s.cgP, s.cgA
	for i := 0; i < n; i++ {
		x[i] = 0
		if s.freePos[i] >= 0 {
			r[i] = g[i]
		} else {
			r[i] = 0
		}
	}
	rz := s.precondition(r, z)
	if !(rz > 0) {
		return false
	}
	tol := cgResidualRel * cgResidualRel * rz
	copy(cp, z)
	// slope is φ_q'(1) = gᵀx − xᵀA·x; pinned reports whether a bound has
	// been met, after which slope must stay ≥ 0.
	slope, pinned := 0.0, false
	for products, sinceRestart := 0, 0; products < cgMaxIter && sinceRestart < nf; sinceRestart++ {
		s.hessMulInto(cp, ap)
		products++
		pAp, rp, gp := 0.0, 0.0, 0.0
		for i := 0; i < n; i++ {
			pAp += cp[i] * ap[i]
			rp += r[i] * cp[i]
			gp += (g[i] - lam0*s.loads[i]) * cp[i]
		}
		if !(pAp > 0) {
			// Curvature flat (every traversing pair's c_k is 0) or lost to
			// rounding along this direction: stop with the progress so far.
			break
		}
		alpha := rz / pAp
		tBox := s.boxStep(rates, x, cp)
		step := math.Min(alpha, tBox)
		// xᵀA·p = gᵀp − rᵀp on the tangent direction p, so the slope moves
		// by step·(2rᵀp − gᵀp) − step²·pᵀA·p (gᵀp taken as (g − λ₀U)ᵀp).
		next := slope + step*(2*rp-gp) - step*step*pAp
		if pinned && next < 0 {
			break
		}
		slope = next
		if tBox > alpha {
			for i := 0; i < n; i++ {
				x[i] += alpha * cp[i]
				r[i] -= alpha * ap[i]
			}
			rzNew := s.precondition(r, z)
			if rzNew <= tol {
				break
			}
			beta := rzNew / rz
			rz = rzNew
			for i := 0; i < n; i++ {
				cp[i] = z[i] + beta*cp[i]
			}
			continue
		}
		// The CG path leaves the box inside this step: stop on the
		// boundary and pin every link that reaches it there. A blocking
		// coordinate is assigned, not added to — rounding would otherwise
		// leave it an ulp outside, and maxStep must read exactly 1 there.
		nf -= s.stepToBox(rates, x, cp, tBox)
		pinned = true
		if nf == 0 || products == cgMaxIter {
			break
		}
		// Restart on the shrunken free set from x: r = g − A·x (x is
		// nonzero on the links just pinned, which is what their fixed
		// step contributes), re-projected onto the tangent space.
		s.hessMulInto(x, ap)
		products++
		for i := 0; i < n; i++ {
			if s.freePos[i] >= 0 {
				r[i] = g[i] - ap[i]
			} else {
				r[i] = 0
			}
		}
		if rz = s.precondition(r, z); rz <= tol {
			break
		}
		copy(cp, z)
		sinceRestart = -1
	}
	// The residual's projection leaves x tangent only to ≈ 1e-16·|g|
	// relative to its tangent part; at a tight tolerance λ·Uᵀx would then
	// outweigh the step's own ascent. Restore Uᵀx = 0 on the links still
	// free, in the same metric.
	ux, umu := 0.0, 0.0
	for i := 0; i < n; i++ {
		ux += s.loads[i] * x[i]
		umu += s.loads[i] * s.loads[i] * minv[i]
	}
	if umu > 0 {
		for i := 0; i < n; i++ {
			x[i] -= ux / umu * minv[i] * s.loads[i]
		}
	}
	asc := 0.0
	for i := 0; i < n; i++ {
		v := x[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		asc += v * (g[i] - lam0*s.loads[i])
	}
	return asc > 0
}

// stepToBox advances x by tBox·p, where tBox is boxStep's answer, and
// pins every free link whose bound that step reaches — the blocking link
// and any tied with it: its step is assigned exactly onto the bound and
// it leaves the free set and the preconditioner. The reach test repeats
// boxStep's arithmetic, so the blocking link always qualifies. Returns
// how many links it pinned.
//
//netsamp:noalloc
func (s *Solver) stepToBox(rates, x, p []float64, tBox float64) int {
	pinned := 0
	for i := 0; i < s.n; i++ {
		//netsamp:floateq-ok an exactly-zero direction component never reaches a bound
		if s.freePos[i] < 0 || p[i] == 0 {
			continue
		}
		switch {
		case p[i] > 0 && (s.alpha[i]-(rates[i]+x[i]))/p[i] <= tBox:
			x[i] = s.alpha[i] - rates[i]
		case p[i] < 0 && -(rates[i]+x[i])/p[i] <= tBox:
			x[i] = -rates[i]
		default:
			x[i] += tBox * p[i]
			continue
		}
		s.freePos[i] = -1
		s.cgMinv[i] = 0
		pinned++
	}
	return pinned
}

// precondition applies the projected Jacobi preconditioner to the
// residual r: with τ = U_fᵀM⁻¹r / U_fᵀM⁻¹U_f it shifts r ← r − τ·U_f
// (which changes no later z, and keeps r from drifting along U_f) and
// writes z = M⁻¹r, so U_fᵀz = 0. Returns rᵀz. s.cgMinv is zero on pinned
// coordinates, which keeps z zero there; r is left alone on them.
//
//netsamp:noalloc
func (s *Solver) precondition(r, z []float64) float64 {
	minv := s.cgMinv
	num, umu := 0.0, 0.0
	for i := 0; i < s.n; i++ {
		num += s.loads[i] * minv[i] * r[i]
		umu += s.loads[i] * s.loads[i] * minv[i]
	}
	tau := num / umu
	rz := 0.0
	for i := 0; i < s.n; i++ {
		if s.freePos[i] >= 0 {
			r[i] -= tau * s.loads[i]
		}
		z[i] = minv[i] * r[i]
		rz += r[i] * z[i]
	}
	return rz
}

// boxStep returns the largest t ≥ 0 for which rates + x + t·p stays in
// [0, α] on every free coordinate (+Inf when p is zero on the free set).
//
//netsamp:noalloc
func (s *Solver) boxStep(rates, x, p []float64) float64 {
	tBox := math.Inf(1)
	for i := 0; i < s.n; i++ {
		//netsamp:floateq-ok an exactly-zero direction component never reaches a bound
		if s.freePos[i] < 0 || p[i] == 0 {
			continue
		}
		t := -(rates[i] + x[i]) / p[i]
		if p[i] > 0 {
			t = (s.alpha[i] - (rates[i] + x[i])) / p[i]
		}
		if t < tBox {
			tBox = t
		}
	}
	return math.Max(tBox, 0)
}

// curvFill caches c_k = w_k·M_k″(ρ_k) for every pair at rates. One CSR
// sweep with two utility calls per pair; the Hessian-vector products
// then run on pure float arithmetic.
//
//netsamp:noalloc
func (s *Solver) curvFill(rates []float64) {
	if s.sh.pool == nil {
		s.curvRange(0, s.nPairs, rates)
		return
	}
	// Chunks write disjoint s.curv ranges, so there is no reduction.
	s.sh.vecA = rates
	s.dispatch(shardTaskCurv)
}

// curvRange fills s.curv over the pairs [kLo, kHi).
//
//netsamp:noalloc
func (s *Solver) curvRange(kLo, kHi int, rates []float64) {
	for k := kLo; k < kHi; k++ {
		s.curv[k] = s.wts[k] * s.utils[k].Curv(s.rho(k, rates))
	}
}

// hessMulInto writes (−H)·v into out over the free coordinates, using
// the curvatures cached by curvFill: for each pair, t = ā_kᵀv, then
// out += (−c_k)·t·ā_k. v may be nonzero on pinned coordinates (a step
// already fixed there); out is zeroed on them afterwards.
//
//netsamp:noalloc
func (s *Solver) hessMulInto(v, out []float64) {
	for i := range out {
		out[i] = 0
	}
	if s.sh.pool == nil {
		s.hessMulRange(0, s.nPairs, v, out)
	} else {
		s.sh.vecB = v
		s.dispatch(shardTaskHess)
		s.reducePartials(out)
	}
	for i := 0; i < s.n; i++ {
		if s.freePos[i] < 0 {
			out[i] = 0
		}
	}
}

// hessMulRange accumulates the pairs [kLo, kHi)'s Hessian-product terms
// into out.
//
//netsamp:noalloc
func (s *Solver) hessMulRange(kLo, kHi int, v, out []float64) {
	for k := kLo; k < kHi; k++ {
		c := s.curv[k]
		//netsamp:floateq-ok exactly-zero curvature contributes nothing
		if c == 0 {
			continue
		}
		lo, hi := s.start[k], s.start[k+1]
		t := 0.0
		if s.fracs == nil {
			for j := lo; j < hi; j++ {
				t += v[s.links[j]]
			}
			//netsamp:floateq-ok exactly-zero row inner product contributes nothing
			if t == 0 {
				continue
			}
			ct := -c * t
			for j := lo; j < hi; j++ {
				out[s.links[j]] += ct
			}
		} else {
			for j := lo; j < hi; j++ {
				t += s.fracs[j] * v[s.links[j]]
			}
			//netsamp:floateq-ok exactly-zero row inner product contributes nothing
			if t == 0 {
				continue
			}
			ct := -c * t
			for j := lo; j < hi; j++ {
				out[s.links[j]] += ct * s.fracs[j]
			}
		}
	}
}

// hessDiagInto writes diag(−H), h_i = Σ_k (−c_k)·a_ki², into out from the
// curvatures cached by curvFill — the Jacobi preconditioner of the CG
// solve. Same chunking and ascending reduction as hessMulInto.
//
//netsamp:noalloc
func (s *Solver) hessDiagInto(out []float64) {
	for i := range out {
		out[i] = 0
	}
	if s.sh.pool == nil {
		s.hessDiagRange(0, s.nPairs, out)
		return
	}
	s.dispatch(shardTaskDiag)
	s.reducePartials(out)
}

// hessDiagRange accumulates the pairs [kLo, kHi)'s diagonal terms into
// out.
//
//netsamp:noalloc
func (s *Solver) hessDiagRange(kLo, kHi int, out []float64) {
	for k := kLo; k < kHi; k++ {
		c := s.curv[k]
		//netsamp:floateq-ok exactly-zero curvature contributes nothing
		if c == 0 {
			continue
		}
		lo, hi := s.start[k], s.start[k+1]
		if s.fracs == nil {
			for j := lo; j < hi; j++ {
				out[s.links[j]] -= c
			}
		} else {
			for j := lo; j < hi; j++ {
				out[s.links[j]] -= c * s.fracs[j] * s.fracs[j]
			}
		}
	}
}
