// Package core implements the paper's primary contribution: the joint
// monitor-activation and sampling-rate optimization.
//
// Given the set L of candidate monitor links (with loads U_i and
// per-link rate caps α_i), a set F of OD pairs with their routing rows,
// and a system capacity θ (maximum packets sampled network-wide per unit
// time), core.Solve maximizes
//
//	Σ_{k∈F} M(ρ_k(p))
//
// over the sampling-rate vector p, subject to Σ_i p_i·U_i = θ and
// 0 ≤ p_i ≤ α_i, using the gradient projection method with an active
// constraint set, Polak-Ribière direction blending, a Newton
// one-dimensional line search, and Karush-Kuhn-Tucker verification with
// constraint de-activation on negative Lagrange multipliers — the
// algorithm of Section IV of the paper. Links whose optimal rate is zero
// are monitors that need not be activated: placement and rate selection
// fall out of the same optimization.
package core

import (
	"fmt"
	"math"
)

// Utility quantifies the information a measurement with effective
// sampling rate ρ provides for one OD pair (paper, Section III). A valid
// utility is strictly increasing, strictly concave and twice continuously
// differentiable on [0, 1], with Value(0) = 0.
type Utility interface {
	// Value returns M(ρ).
	Value(rho float64) float64
	// Deriv returns M'(ρ).
	Deriv(rho float64) float64
	// Curv returns M''(ρ).
	Curv(rho float64) float64
}

// SRE is the paper's utility (Section IV-C), built from the expected
// squared relative error of the flow-size estimator X/ρ for a flow of
// size S sampled binomially at rate ρ:
//
//	E[SRE](ρ) = (1-ρ)/ρ · E[1/S]
//	A(ρ)      = 1 − E[SRE](ρ)          (mean squared relative accuracy)
//
// A is strictly increasing and concave but undefined at ρ = 0, so below
// a stitching point x₀ it is replaced by its quadratic expansion A* at
// x₀, with x₀ chosen so that A*(0) = 0. Matching value, first and second
// derivative at x₀ keeps M twice continuously differentiable. Solving
// A(x₀) − x₀A'(x₀) + x₀²A”(x₀)/2 = 0 gives the closed form
//
//	x₀ = 3c/(1+c),  c = E[1/S],
//
// which reproduces the x₀ values printed in the paper's Figure 1
// (c = 0.002 → x₀ ≈ 0.005988; c ≈ 0.000667 → x₀ ≈ 0.002), and
// M(x₀) = 2(1+c)/3 ≈ 2/3 at the stitch.
type SRE struct {
	// C is E[1/S], the mean inverse flow size of the OD pair.
	C float64
	// X0 is the stitching point 3C/(1+C).
	X0 float64
	// Derivative values of A at X0, cached for the quadratic branch.
	a0, d1, d2 float64
}

// NewSRE builds the SRE utility for mean inverse OD size c = E[1/S].
// c must lie in (0, 1]: an OD pair has at least one packet, so
// E[1/S] ≤ 1, and a zero c would make the utility flat. For c > 1/2
// (OD pairs of only a couple of packets) the stitch point x₀ exceeds 1
// and M(1) may slightly exceed 1; the solver relies only on
// monotonicity and concavity, which hold for every valid c.
func NewSRE(c float64) (*SRE, error) {
	if !(c > 0 && c <= 1) {
		// !(c > 0) rejects NaN too: comparisons with NaN are false.
		return nil, invalidInput("utility parameter E[1/S]", -1, c, "want (0, 1]")
	}
	x0 := 3 * c / (1 + c)
	u := &SRE{C: c, X0: x0}
	u.a0 = u.analytic(x0)
	u.d1 = c / (x0 * x0)
	u.d2 = -2 * c / (x0 * x0 * x0)
	return u, nil
}

// MustSRE is NewSRE that panics on error, for literals in tests and
// examples.
func MustSRE(c float64) *SRE {
	u, err := NewSRE(c)
	if err != nil {
		panic(err)
	}
	return u
}

// analytic is A(ρ) = 1 − c(1−ρ)/ρ, the accuracy branch used for ρ ≥ x₀.
//
//netsamp:noalloc
func (u *SRE) analytic(rho float64) float64 {
	return 1 + u.C - u.C/rho
}

// Value implements Utility. For ρ beyond 1 (possible transiently under
// the linear effective-rate approximation) the analytic branch is simply
// continued; it remains increasing and concave there.
//
//netsamp:noalloc
func (u *SRE) Value(rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	if rho >= u.X0 {
		return u.analytic(rho)
	}
	d := rho - u.X0
	return u.a0 + d*u.d1 + 0.5*d*d*u.d2
}

// Deriv implements Utility.
//
//netsamp:noalloc
func (u *SRE) Deriv(rho float64) float64 {
	if rho >= u.X0 {
		return u.C / (rho * rho)
	}
	if rho < 0 {
		rho = 0
	}
	return u.d1 + (rho-u.X0)*u.d2
}

// Curv implements Utility.
//
//netsamp:noalloc
func (u *SRE) Curv(rho float64) float64 {
	if rho >= u.X0 {
		return -2 * u.C / (rho * rho * rho)
	}
	return u.d2
}

// ExpectedSRE returns E[SRE](ρ) = (1-ρ)/ρ · c, the expected squared
// relative error of the size estimate at effective rate ρ. It returns
// +Inf at ρ = 0.
func (u *SRE) ExpectedSRE(rho float64) float64 {
	if rho <= 0 {
		return math.Inf(1)
	}
	return (1 - rho) / rho * u.C
}

// RateForUtility inverts M: the effective sampling rate with
// M(ρ) = m, for m ∈ (0, 1). Above the stitch value M(x₀) the analytic
// branch gives ρ = c/(1+c−m); below it the quadratic expansion is
// inverted in closed form. It returns an error for m outside (0, 1).
func (u *SRE) RateForUtility(m float64) (float64, error) {
	if !(m > 0 && m < 1) {
		return 0, fmt.Errorf("core: utility target %v out of (0, 1)", m)
	}
	if m >= u.a0 {
		// 1 + c - c/ρ = m  ⇒  ρ = c / (1 + c - m).
		return u.C / (1 + u.C - m), nil
	}
	// Quadratic branch: a0 + d·d1 + d²·d2/2 = m with d = ρ − x₀ ∈ [−x₀, 0].
	// The relevant root of (d2/2)d² + d1·d + (a0 − m) = 0 is the one in
	// [−x₀, 0]; with d2 < 0 that is the "+" root of the quadratic formula.
	disc := u.d1*u.d1 - 2*u.d2*(u.a0-m)
	if disc < 0 {
		disc = 0
	}
	d := (-u.d1 + math.Sqrt(disc)) / u.d2
	rho := u.X0 + d
	if rho < 0 {
		rho = 0
	}
	return rho, nil
}
