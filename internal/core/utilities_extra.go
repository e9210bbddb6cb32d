package core

import (
	"fmt"
	"math"
)

// This file provides utility functions beyond the paper's SRE utility,
// demonstrating the generality claim of Section III ("the method can be
// applied to a wide range of measurement tasks for which a utility
// function can be sought") and the ongoing-work direction of Section VI
// (utilities for anomaly detection and performance analysis). Every
// implementation satisfies the framework's contract: strictly
// increasing, strictly concave, twice continuously differentiable, with
// M(0) = 0.

// Detection is the anomaly-detection utility: the probability that at
// least one packet of an anomalous event of Size packets is sampled,
//
//	M(ρ) = 1 − (1−ρ)^Size.
//
// Detecting one packet of a scan, worm or DDoS flow is enough to flag
// the event for deeper inspection; maximizing ΣM therefore maximizes
// the expected number of detected events. The function is strictly
// increasing and strictly concave on [0, 1] for Size ≥ 2 and C^∞.
type Detection struct {
	// Size is the anomaly's footprint in packets within the interval.
	Size int
}

// NewDetection builds the detection utility for events of the given
// packet footprint. Size must be at least 2 (Size 1 gives a linear, not
// strictly concave, utility).
func NewDetection(size int) (*Detection, error) {
	if size < 2 {
		return nil, fmt.Errorf("core: detection event size %d, want >= 2", size)
	}
	return &Detection{Size: size}, nil
}

// Value implements Utility.
//
//netsamp:noalloc
func (u *Detection) Value(rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	if rho >= 1 {
		return 1
	}
	return 1 - math.Pow(1-rho, float64(u.Size))
}

// Deriv implements Utility.
//
//netsamp:noalloc
func (u *Detection) Deriv(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho >= 1 {
		return 0
	}
	m := float64(u.Size)
	return m * math.Pow(1-rho, m-1)
}

// Curv implements Utility.
//
//netsamp:noalloc
func (u *Detection) Curv(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	if rho >= 1 {
		return 0
	}
	m := float64(u.Size)
	return -m * (m - 1) * math.Pow(1-rho, m-2)
}

// RateForUtility inverts the detection probability: the effective rate
// with 1−(1−ρ)^Size = m, for m ∈ (0, 1).
func (u *Detection) RateForUtility(m float64) (float64, error) {
	if !(m > 0 && m < 1) {
		return 0, fmt.Errorf("core: utility target %v out of (0, 1)", m)
	}
	return 1 - math.Pow(1-m, 1/float64(u.Size)), nil
}

// LogCoverage is a proportional-fairness utility,
//
//	M(ρ) = log(1 + ρ/c) / log(1 + 1/c),
//
// normalized so M(0) = 0 and M(1) = 1. The scale c sets where the
// marginal return flattens; small c rewards the first samples of every
// pair strongly, which suits coverage-style tasks ("sample something of
// everything") such as the flow-coverage objective of Suh et al. The
// log shape also yields proportionally fair allocations under a shared
// budget, the classic network-utility-maximization argument.
type LogCoverage struct {
	// C is the scale (knee) of the logarithm, > 0.
	C float64
	// norm caches 1/log(1+1/C).
	norm float64
}

// NewLogCoverage builds a log utility with scale c > 0.
func NewLogCoverage(c float64) (*LogCoverage, error) {
	if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
		return nil, fmt.Errorf("core: log-coverage scale %v, want > 0", c)
	}
	return &LogCoverage{C: c, norm: 1 / math.Log1p(1/c)}, nil
}

// Value implements Utility.
//
//netsamp:noalloc
func (u *LogCoverage) Value(rho float64) float64 {
	if rho <= 0 {
		return 0
	}
	return math.Log1p(rho/u.C) * u.norm
}

// Deriv implements Utility.
//
//netsamp:noalloc
func (u *LogCoverage) Deriv(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	return u.norm / (u.C + rho)
}

// Curv implements Utility.
//
//netsamp:noalloc
func (u *LogCoverage) Curv(rho float64) float64 {
	if rho < 0 {
		rho = 0
	}
	d := u.C + rho
	return -u.norm / (d * d)
}

// RateForUtility inverts the log utility: the effective rate with
// M(ρ) = m, for m ∈ (0, 1).
func (u *LogCoverage) RateForUtility(m float64) (float64, error) {
	if !(m > 0 && m < 1) {
		return 0, fmt.Errorf("core: utility target %v out of (0, 1)", m)
	}
	return u.C * math.Expm1(m/u.norm), nil
}
