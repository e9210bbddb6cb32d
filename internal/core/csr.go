package core

import (
	"fmt"
	"math"
)

// CSRProblem is a problem instance whose routing incidence arrives
// already in the solver's compiled CSR layout: pair k traverses
// Links[Start[k]:Start[k+1]], with optional parallel ECMP fractions.
// It exists for the scale tier — a 10⁶-pair instance never has to
// materialize 10⁶ Pair headers and per-pair link slices just so
// NewSolver can flatten them again. The topology generator emits this
// form directly.
type CSRProblem struct {
	// Loads is U_i > 0 for each candidate link.
	Loads []float64
	// MaxRate is α_i ∈ (0, 1] per link; nil means α_i = 1.
	MaxRate []float64
	// Budget is θ: Σ p_i·U_i = Budget at the optimum.
	Budget float64
	// Start/Links/Fracs are the CSR rows: len(Start) = nPairs+1,
	// Start[0] = 0, Start monotone, Start[nPairs] = len(Links). Fracs is
	// nil for single-path routing, else parallel to Links with entries in
	// (0, 1].
	Start []int32
	Links []int32
	Fracs []float64
	// Utilities holds one Utility per pair. Entries may be shared: a
	// scale instance with a handful of flow-size classes points many
	// pairs at the same *SRE.
	Utilities []Utility
	// Weights optionally holds per-pair objective weights (entries <= 0
	// mean 1); nil means every pair weighs 1.
	Weights []float64
	// Model selects the effective-rate model; nil means ModelLinear.
	Model RateModel
}

// NumPairs returns the number of CSR rows.
func (p *CSRProblem) NumPairs() int { return len(p.Start) - 1 }

// NewSolverCSR validates p and compiles it into a Solver workspace.
// The returned Solver is the one NewSolver builds from the equivalent
// []Pair form (both end in the same compile step), but takes ownership
// of the Start/Links/Fracs/Utilities slices instead of copying rows
// (the caller must not mutate them afterwards). Loads and MaxRate are
// cloned as usual, so re-tuning never touches caller memory.
func NewSolverCSR(p *CSRProblem) (*Solver, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil CSR problem")
	}
	n := len(p.Loads)
	if n == 0 {
		return nil, fmt.Errorf("core: no candidate links")
	}
	if p.MaxRate != nil && len(p.MaxRate) != n {
		return nil, fmt.Errorf("core: MaxRate has %d entries for %d links", len(p.MaxRate), n)
	}
	maxSampled := 0.0
	for i, u := range p.Loads {
		if !(u > 0) || math.IsInf(u, 0) {
			return nil, invalidInput("load of link", i, u, "want a finite value > 0")
		}
		a := capAt(p.MaxRate, i)
		if !(a > 0 && a <= 1) {
			return nil, invalidInput("max rate of link", i, a, "want (0, 1]")
		}
		maxSampled += a * u
	}
	if !(p.Budget > 0) || math.IsInf(p.Budget, 0) {
		return nil, invalidInput("budget", -1, p.Budget, "want a finite value > 0")
	}
	if p.Budget > maxSampled*(1+1e-12) {
		return nil, invalidInput("budget", -1, p.Budget,
			fmt.Sprintf("exceeds maximum samplable rate %v (infeasible)", maxSampled))
	}
	nPairs := len(p.Start) - 1
	if nPairs < 1 {
		return nil, fmt.Errorf("core: no OD pairs (Start needs at least 2 entries)")
	}
	if p.Start[0] != 0 || int(p.Start[nPairs]) != len(p.Links) {
		return nil, fmt.Errorf("core: CSR Start must run 0..len(Links)=%d, got [%d..%d]",
			len(p.Links), p.Start[0], p.Start[nPairs])
	}
	if len(p.Utilities) != nPairs {
		return nil, fmt.Errorf("core: %d utilities for %d pairs", len(p.Utilities), nPairs)
	}
	if p.Weights != nil && len(p.Weights) != nPairs {
		return nil, fmt.Errorf("core: %d weights for %d pairs", len(p.Weights), nPairs)
	}
	if p.Fracs != nil {
		if len(p.Fracs) != len(p.Links) {
			return nil, fmt.Errorf("core: %d fractions for %d CSR entries", len(p.Fracs), len(p.Links))
		}
		if m := modelOrLinear(p.Model); !m.SupportsFracs() {
			return nil, fmt.Errorf("core: the %s rate model requires single-path routing (no fractions)", m.Name())
		}
	}
	// Stamp-array duplicate scan, exactly like Problem.Validate but over
	// the CSR rows: seen[l] holds 1 + the index of the last pair that
	// referenced link l.
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for k := 0; k < nPairs; k++ {
		lo, hi := p.Start[k], p.Start[k+1]
		if hi < lo {
			return nil, fmt.Errorf("core: CSR Start not monotone at pair %d (%d > %d)", k, lo, hi)
		}
		if hi == lo {
			return nil, fmt.Errorf("core: pair %d traverses no candidate link", k)
		}
		if p.Utilities[k] == nil {
			return nil, fmt.Errorf("core: pair %d has no utility", k)
		}
		if p.Weights != nil {
			if w := p.Weights[k]; math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, invalidInput(fmt.Sprintf("pair %d weight", k), -1, w, "want a finite value")
			}
		}
		for j := lo; j < hi; j++ {
			l := p.Links[j]
			if l < 0 || int(l) >= n {
				return nil, fmt.Errorf("core: pair %d references link %d out of range [0,%d)", k, l, n)
			}
			if seen[l] == int32(k) {
				return nil, fmt.Errorf("core: pair %d references link %d twice", k, l)
			}
			seen[l] = int32(k)
			if p.Fracs != nil {
				if f := p.Fracs[j]; !(f > 0 && f <= 1) {
					return nil, invalidInput(fmt.Sprintf("pair %d fraction", k), int(j-lo), f, "want (0, 1]")
				}
			}
		}
	}
	return compile(p), nil
}

// NNZ reports the number of (pair, link) incidences in the compiled
// problem — the per-sweep work of the solver's gradient and line-search
// kernels, and the size input of control's deadline cost model.
func (s *Solver) NNZ() int { return len(s.links) }

// NumPairs reports the number of compiled OD pairs.
func (s *Solver) NumPairs() int { return s.nPairs }

// NumLinks reports the candidate monitor set size.
func (s *Solver) NumLinks() int { return s.n }
