package core

import "math"

// Matrix-free Newton at scale. The bordered dense KKT factorization in
// newtonInto is O(nf²) memory and O(nf³) time — fine for GEANT, fatal at
// 10⁴ links where the free set can be the whole candidate set. For
// additive rate models the objective Hessian is the low-rank sum
//
//	H = Σ_k c_k · ā_k ā_kᵀ,   c_k = w_k·M_k″(ρ_k) ≤ 0,
//
// so Hessian-vector products cost one CSR sweep (two passes per row) and
// the equality-constrained Newton system
//
//	H Δ = −g_f,  U_fᵀ Δ = 0
//
// can be solved by projected conjugate gradients on the budget
// hyperplane's tangent space: every CG vector is kept orthogonal to U_f,
// where A = −H is positive semi-definite (strictly positive along the
// directions that matter, since every pair's curvature is ≤ 0 and the
// line search safeguards the rest). Memory is O(n + nPairs); no pair×link
// intermediate is ever materialized.

// cgMaxIter caps the CG iterations per Newton step. The step is used as
// a safeguarded search direction, so an inexact solve only costs line-
// search progress, never correctness.
const cgMaxIter = 128

// cgResidualRel is the relative residual-norm target ‖r‖ ≤ rel·‖r₀‖ at
// which the CG solve is accepted.
const cgResidualRel = 1e-4

// newtonCGInto computes the equality-constrained Newton step at rates by
// projected CG and writes it into out (zero on pinned coordinates),
// reporting whether out is a usable ascent direction. s.freePos must be
// current (newtonInto fills it before dispatching here). Only called for
// additive models — newtonInto has already rejected the rest.
//netsamp:noalloc
func (s *Solver) newtonCGInto(out, rates, g []float64, nf int) bool {
	if s.curv == nil {
		// Scratch is only sized for solvers with n > denseKKTMaxFree, and
		// nf ≤ n, so a dispatch here without it is impossible; bail to the
		// first-order direction rather than crash if it ever happens.
		return false
	}
	n := s.n
	s.curvFill(rates)
	uu := 0.0
	for i := 0; i < n; i++ {
		if s.freePos[i] >= 0 {
			uu += s.loads[i] * s.loads[i]
		}
	}
	if !(uu > 0) {
		return false
	}
	x, r, cp, ap := out, s.cgR, s.cgP, s.cgA
	for i := 0; i < n; i++ {
		x[i] = 0
		if s.freePos[i] >= 0 {
			r[i] = g[i]
		} else {
			r[i] = 0
		}
	}
	s.projectFree(r, uu)
	rr := 0.0
	for i := 0; i < n; i++ {
		rr += r[i] * r[i]
	}
	if !(rr > 0) {
		return false
	}
	tol2 := cgResidualRel * cgResidualRel * rr
	copy(cp, r)
	iters := nf
	if iters > cgMaxIter {
		iters = cgMaxIter
	}
	for it := 0; it < iters; it++ {
		s.hessMulInto(cp, ap)
		s.projectFree(ap, uu)
		pAp := 0.0
		for i := 0; i < n; i++ {
			pAp += cp[i] * ap[i]
		}
		if !(pAp > 0) {
			// Curvature flat (every traversing pair's c_k is 0) or lost to
			// rounding along this direction: stop with the progress so far.
			break
		}
		alpha := rr / pAp
		for i := 0; i < n; i++ {
			x[i] += alpha * cp[i]
			r[i] -= alpha * ap[i]
		}
		rrNew := 0.0
		for i := 0; i < n; i++ {
			rrNew += r[i] * r[i]
		}
		if rrNew <= tol2 {
			break
		}
		beta := rrNew / rr
		rr = rrNew
		for i := 0; i < n; i++ {
			cp[i] = r[i] + beta*cp[i]
		}
	}
	asc := 0.0
	for i := 0; i < n; i++ {
		v := x[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		asc += v * g[i]
	}
	return asc > 0
}

// projectFree removes the U_f component of v over the free coordinates:
// v ← v − (U_fᵀv / U_fᵀU_f)·U_f. Pinned coordinates are untouched (they
// are kept at zero by the callers).
//netsamp:noalloc
func (s *Solver) projectFree(v []float64, uu float64) {
	num := 0.0
	for i := 0; i < s.n; i++ {
		if s.freePos[i] >= 0 {
			num += s.loads[i] * v[i]
		}
	}
	tau := num / uu
	for i := 0; i < s.n; i++ {
		if s.freePos[i] >= 0 {
			v[i] -= tau * s.loads[i]
		}
	}
}

// curvFill caches c_k = w_k·M_k″(ρ_k) for every pair at rates. One CSR
// sweep with two utility calls per pair; the Hessian-vector products
// then run on pure float arithmetic.
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
//netsamp:noalloc
func (s *Solver) curvRange(kLo, kHi int, rates []float64) {
	for k := kLo; k < kHi; k++ {
		s.curv[k] = s.wts[k] * s.utils[k].Curv(s.rho(k, rates))
	}
}

// hessMulInto writes (−H)·v into out over the free coordinates, using
// the curvatures cached by curvFill: for each pair, t = ā_kᵀv, then
// out += (−c_k)·t·ā_k. v must be zero on pinned coordinates; out is
// zeroed on them afterwards.
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
