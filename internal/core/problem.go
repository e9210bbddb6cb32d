package core

import (
	"fmt"
	"math"
)

// Problem is an instance of the network-wide sampling problem over a
// candidate monitor set of n links indexed 0..n-1. Its routing rows —
// the rows of the paper's routing matrix R restricted to the candidate
// links — arrive in the solver's compiled CSR layout: pair k traverses
// Links[Start[k]:Start[k+1]], with optional parallel ECMP fractions.
// plan.Build and plan.BuildScale emit this form directly; NewSolver
// adopts the rows without copying them.
//
// Loads, MaxRate and Budget share one time unit: Loads[i] is the packet
// rate U_i on link i, Budget is θ expressed as the maximum sampled
// packet rate network-wide. Use BudgetPerInterval to convert the paper's
// packets-per-measurement-interval convention.
type Problem struct {
	// Loads is U_i > 0 for each candidate link.
	Loads []float64
	// MaxRate is α_i ∈ (0, 1] for each candidate link. Nil means α_i = 1
	// for all links (no per-link cap, as in the paper's Table I run).
	MaxRate []float64
	// Budget is θ: Σ p_i·U_i = Budget at the optimum.
	Budget float64
	// Start/Links/Fracs are the CSR rows of the measurement task F:
	// len(Start) = nPairs+1, Start[0] = 0, Start monotone,
	// Start[nPairs] = len(Links). Fracs is nil for single-path routing,
	// else parallel to Links with entries in (0, 1]. Under per-flow ECMP
	// a packet of pair k crosses link Links[j] with probability Fracs[j],
	// so the effective sampling rate (7) generalizes to
	// ρ_k = Σ_i f_ki·p_i. The exact product model (1) assumes
	// deterministic single-path routing and rejects fractions.
	Start []int32
	Links []int32
	Fracs []float64
	// Utilities holds one Utility per pair. Entries may be shared: a
	// scale instance with a handful of flow-size classes points many
	// pairs at the same *SRE.
	Utilities []Utility
	// Weights optionally holds per-pair objective weights (entries <= 0
	// mean 1); nil means every pair weighs 1. The paper's objective
	// weighs pairs equally; weights support operator priorities.
	Weights []float64
	// Model selects the effective-rate model. Nil means ModelLinear, the
	// paper's working approximation (7): ρ_k = Σ r_ki·p_i, valid for the
	// low rates and short monitored paths the optimum exhibits
	// (Section IV-B). See RateModel for the alternatives.
	Model RateModel
}

// BudgetPerInterval converts a budget of θ sampled packets per
// measurement interval of the given length in seconds into the sampled
// packet rate used by Problem.Budget.
func BudgetPerInterval(theta, intervalSeconds float64) float64 {
	return theta / intervalSeconds
}

// NumPairs returns the number of CSR rows.
func (p *Problem) NumPairs() int { return len(p.Start) - 1 }

// capAt returns α_i under the nil-means-uncapped convention of
// Problem.MaxRate.
func capAt(maxRate []float64, i int) float64 {
	if maxRate == nil {
		return 1
	}
	return maxRate[i]
}

// Validate checks the problem for structural and feasibility errors:
// positive loads, caps in (0, 1], a positive budget not exceeding the
// maximum samplable rate Σ α_i·U_i, at least one pair, well-formed CSR
// rows referencing valid links at most once each, fractions in (0, 1]
// under a model that accepts them, and one utility (and at most one
// finite weight) per pair. Numeric rejections are *InputError values
// wrapping ErrInvalidInput. NewSolver and SolveMaxMinExact validate
// once; Solver.Solve never re-validates.
func (p *Problem) Validate() error {
	if p == nil {
		return fmt.Errorf("core: nil problem")
	}
	n := len(p.Loads)
	if n == 0 {
		return fmt.Errorf("core: no candidate links")
	}
	if p.MaxRate != nil && len(p.MaxRate) != n {
		return fmt.Errorf("core: MaxRate has %d entries for %d links", len(p.MaxRate), n)
	}
	maxSampled := 0.0
	for i, u := range p.Loads {
		if !(u > 0) || math.IsInf(u, 0) {
			// !(u > 0) also rejects NaN: every comparison with NaN is false.
			return invalidInput("load of link", i, u, "want a finite value > 0")
		}
		a := capAt(p.MaxRate, i)
		if !(a > 0 && a <= 1) {
			return invalidInput("max rate of link", i, a, "want (0, 1]")
		}
		maxSampled += a * u
	}
	if !(p.Budget > 0) || math.IsInf(p.Budget, 0) {
		return invalidInput("budget", -1, p.Budget, "want a finite value > 0")
	}
	if p.Budget > maxSampled*(1+1e-12) {
		return invalidInput("budget", -1, p.Budget,
			fmt.Sprintf("exceeds maximum samplable rate %v (infeasible)", maxSampled))
	}
	nPairs := p.NumPairs()
	if nPairs < 1 {
		return fmt.Errorf("core: no OD pairs (Start needs at least 2 entries)")
	}
	if p.Start[0] != 0 || int(p.Start[nPairs]) != len(p.Links) {
		return fmt.Errorf("core: CSR Start must run 0..len(Links)=%d, got [%d..%d]",
			len(p.Links), p.Start[0], p.Start[nPairs])
	}
	if len(p.Utilities) != nPairs {
		return fmt.Errorf("core: %d utilities for %d pairs", len(p.Utilities), nPairs)
	}
	if p.Weights != nil && len(p.Weights) != nPairs {
		return fmt.Errorf("core: %d weights for %d pairs", len(p.Weights), nPairs)
	}
	if p.Fracs != nil {
		if len(p.Fracs) != len(p.Links) {
			return fmt.Errorf("core: %d fractions for %d CSR entries", len(p.Fracs), len(p.Links))
		}
		if m := modelOrLinear(p.Model); !m.SupportsFracs() {
			return fmt.Errorf("core: the %s rate model requires single-path routing (no fractions)", m.Name())
		}
	}
	// One stamp array shared by every pair's duplicate-link scan:
	// seen[l] holds the index of the last pair that referenced link l.
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	for k := 0; k < nPairs; k++ {
		lo, hi := p.Start[k], p.Start[k+1]
		if hi < lo || int(hi) > len(p.Links) {
			return fmt.Errorf("core: CSR Start not monotone at pair %d (%d, %d of %d entries)", k, lo, hi, len(p.Links))
		}
		if hi == lo {
			return fmt.Errorf("core: pair %d traverses no candidate link", k)
		}
		if p.Utilities[k] == nil {
			return fmt.Errorf("core: pair %d has no utility", k)
		}
		if p.Weights != nil {
			if w := p.Weights[k]; math.IsNaN(w) || math.IsInf(w, 0) {
				// Non-positive weights mean 1, but NaN slips through
				// every comparison — reject it here instead.
				return invalidInput(fmt.Sprintf("pair %d weight", k), -1, w, "want a finite value")
			}
		}
		for j := lo; j < hi; j++ {
			l := p.Links[j]
			if l < 0 || int(l) >= n {
				return fmt.Errorf("core: pair %d references link %d out of range [0,%d)", k, l, n)
			}
			if seen[l] == int32(k) {
				return fmt.Errorf("core: pair %d references link %d twice", k, l)
			}
			seen[l] = int32(k)
			if p.Fracs != nil {
				if f := p.Fracs[j]; !(f > 0 && f <= 1) {
					return invalidInput(fmt.Sprintf("pair %d fraction", k), int(j-lo), f, "want (0, 1]")
				}
			}
		}
	}
	return nil
}

// EffectiveRates returns ρ_k for every pair at the rate vector rates,
// under the problem's rate model (the solver-side surrogate; apply
// Model.Deployed for the realized inclusion probability). The rows are
// evaluated by the same model hook the solver runs.
func (p *Problem) EffectiveRates(rates []float64) []float64 {
	m := modelOrLinear(p.Model)
	out := make([]float64, p.NumPairs())
	for k := range out {
		lo, hi := p.Start[k], p.Start[k+1]
		out[k] = m.pairRho(p.Links[lo:hi], rowFracs(p.Fracs, lo, hi), rates)
	}
	return out
}
