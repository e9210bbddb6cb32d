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
// hyperplane's tangent space, where A = −H is positive semi-definite
// (strictly positive along the directions that matter, since every
// pair's curvature is ≤ 0 and the line search safeguards the rest).
// Memory is O(n + nPairs); no pair×link intermediate is ever
// materialized. Two things keep the inner solve of a cold start at about
// one Hessian sweep per outer iteration:
//
//   - Jacobi preconditioning. M = diag(A), h_i = Σ_k (−c_k)·a_ki², read
//     off the same curvature cache the products use. The budget
//     projection is taken in that metric, z = M⁻¹r − τ·M⁻¹U_f with
//     τ = U_fᵀM⁻¹r / U_fᵀM⁻¹U_f, so every direction stays tangent.
//   - Truncation at the box (Steihaug; Lin–Moré). The outer loop uses the
//     step only up to its first blocking bound — maxStep clamps it, the
//     line search stops there and activate pins that link — so the CG
//     path is followed only until rates + x reaches the box, and the
//     iterate ON the boundary is returned. Any point of the CG path is an
//     ascent direction, so the outer loop's safeguards and certificates
//     (projected-gradient norm, multiplier signs) are unaffected; once
//     the active set has settled no bound interferes and the solve runs
//     to its residual target, which is what makes the last Newton steps
//     quadratic.

// cgMaxIter caps the CG iterations per Newton step. The step is used as
// a safeguarded search direction, so an inexact solve only costs line-
// search progress, never correctness.
const cgMaxIter = 128

// cgResidualRel is the relative target ‖r‖ ≤ rel·‖r₀‖ — in the
// preconditioned norm √(rᵀz) — at which the CG solve is accepted.
const cgResidualRel = 1e-4

// cgDiagFloorRel floors the Jacobi diagonal at this fraction of its
// largest free entry: a link whose pairs all sit on flat curvature would
// otherwise get an unbounded preconditioned step.
const cgDiagFloorRel = 1e-12

// newtonCGInto computes the equality-constrained Newton step at rates by
// Jacobi-preconditioned projected CG, truncated where rates + step first
// meets the box, and writes it into out (zero on pinned coordinates),
// reporting whether out is a usable ascent direction. s.freePos must be
// current (newtonInto fills it before dispatching here). Only called for
// additive models — newtonInto has already rejected the rest.
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
	umu := 0.0 // U_fᵀM⁻¹U_f
	for i := 0; i < n; i++ {
		if s.freePos[i] < 0 {
			minv[i] = 0
			continue
		}
		minv[i] = 1 / math.Max(minv[i], floor)
		umu += s.loads[i] * s.loads[i] * minv[i]
	}
	x, r, z, cp, ap := out, s.cgR, s.cgZ, s.cgP, s.cgA
	for i := 0; i < n; i++ {
		x[i] = 0
		if s.freePos[i] >= 0 {
			r[i] = g[i]
		} else {
			r[i] = 0
		}
	}
	rz := s.precondition(r, z, umu)
	if !(rz > 0) {
		return false
	}
	tol := cgResidualRel * cgResidualRel * rz
	copy(cp, z)
	iters := nf
	if iters > cgMaxIter {
		iters = cgMaxIter
	}
	for it := 0; it < iters; it++ {
		s.hessMulInto(cp, ap)
		pAp := 0.0
		for i := 0; i < n; i++ {
			pAp += cp[i] * ap[i]
		}
		if !(pAp > 0) {
			// Curvature flat (every traversing pair's c_k is 0) or lost to
			// rounding along this direction: stop with the progress so far.
			break
		}
		alpha := rz / pAp
		if tBox, b := s.boxStep(rates, x, cp); tBox <= alpha {
			// The CG path leaves the box inside this step: stop on the
			// boundary. The blocking coordinate is assigned, not added to —
			// rounding would otherwise leave it an ulp outside, and maxStep
			// must read exactly 1 there.
			for i := 0; i < n; i++ {
				x[i] += tBox * cp[i]
			}
			if cp[b] > 0 {
				x[b] = s.alpha[b] - rates[b]
			} else {
				x[b] = -rates[b]
			}
			break
		}
		for i := 0; i < n; i++ {
			x[i] += alpha * cp[i]
			r[i] -= alpha * ap[i]
		}
		rzNew := s.precondition(r, z, umu)
		if rzNew <= tol {
			break
		}
		beta := rzNew / rz
		rz = rzNew
		for i := 0; i < n; i++ {
			cp[i] = z[i] + beta*cp[i]
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

// precondition applies the projected Jacobi preconditioner to the
// residual r: with τ = U_fᵀM⁻¹r / U_fᵀM⁻¹U_f it shifts r ← r − τ·U_f
// (which changes no later z, and keeps r from drifting along U_f) and
// writes z = M⁻¹r, so U_fᵀz = 0. Returns rᵀz. s.cgMinv is zero on pinned
// coordinates, which keeps z zero there; r is left alone on them.
//netsamp:noalloc
func (s *Solver) precondition(r, z []float64, umu float64) float64 {
	minv := s.cgMinv
	num := 0.0
	for i := 0; i < s.n; i++ {
		num += s.loads[i] * minv[i] * r[i]
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
// [0, α] on every free coordinate, and the coordinate that blocks there
// (+Inf and −1 when p is zero on the free set).
//netsamp:noalloc
func (s *Solver) boxStep(rates, x, p []float64) (float64, int) {
	tBox, blocking := math.Inf(1), -1
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
			tBox, blocking = t, i
		}
	}
	return math.Max(tBox, 0), blocking
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

// hessDiagInto writes diag(−H), h_i = Σ_k (−c_k)·a_ki², into out from the
// curvatures cached by curvFill — the Jacobi preconditioner of the CG
// solve. Same chunking and ascending reduction as hessMulInto.
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
