package core

import (
	"fmt"
	"math"
)

// Pair is one OD pair of the measurement task: the links it traverses
// (as dense indices into the candidate monitor set) and its utility.
type Pair struct {
	Name    string
	Links   []int
	Utility Utility
	// Fracs optionally holds the ECMP traffic fraction of each entry of
	// Links (nil means single-path routing: every fraction is 1). Under
	// per-flow ECMP a packet of the pair crosses link i with probability
	// Fracs[i], so the effective sampling rate (7) generalizes to
	// rho_k = sum_i f_ki*p_i. The exact product model (1) assumes
	// deterministic single-path routing and rejects fractions.
	Fracs []float64
	// Weight scales this pair's utility in the objective; 0 means 1.
	// The paper's objective weighs pairs equally; weights support
	// operator priorities and the max-min solver's reweighting scheme.
	Weight float64
}

// Problem is an instance of the network-wide sampling problem over a
// candidate monitor set of n links indexed 0..n-1.
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
	// Pairs is the measurement task F.
	Pairs []Pair
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

// NumLinks returns the size of the candidate monitor set.
//
//netsamp:noalloc
func (p *Problem) NumLinks() int { return len(p.Loads) }

// capAt returns α_i under the nil-means-uncapped convention of
// Problem.MaxRate and CSRProblem.MaxRate.
func capAt(maxRate []float64, i int) float64 {
	if maxRate == nil {
		return 1
	}
	return maxRate[i]
}

// Validate checks the problem for structural and feasibility errors:
// positive loads, caps in (0, 1], a positive budget not exceeding the
// maximum samplable rate Σ α_i·U_i, at least one pair, and pair rows
// referencing valid links.
func (p *Problem) Validate() error {
	n := p.NumLinks()
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
	if len(p.Pairs) == 0 {
		return fmt.Errorf("core: no OD pairs")
	}
	// One stamp array shared by every pair's duplicate-link scan: seen[l]
	// holds the 1-based index of the last pair that referenced link l.
	// This replaces the per-pair map the validator used to rebuild, and
	// it runs once per Solver compile — Solver.Solve never re-validates.
	seen := make([]int, n)
	for k, pr := range p.Pairs {
		if pr.Utility == nil {
			return fmt.Errorf("core: pair %d (%q) has no utility", k, pr.Name)
		}
		if math.IsNaN(pr.Weight) || math.IsInf(pr.Weight, 0) {
			// weight() coerces non-positive weights to 1, but NaN slips
			// through every comparison — reject it here instead.
			return invalidInput(fmt.Sprintf("pair %d (%q) weight", k, pr.Name), -1, pr.Weight, "want a finite value")
		}
		if len(pr.Links) == 0 {
			return fmt.Errorf("core: pair %d (%q) traverses no candidate link", k, pr.Name)
		}
		for _, l := range pr.Links {
			if l < 0 || l >= n {
				return fmt.Errorf("core: pair %d (%q) references link %d out of range [0,%d)", k, pr.Name, l, n)
			}
			if seen[l] == k+1 {
				return fmt.Errorf("core: pair %d (%q) references link %d twice", k, pr.Name, l)
			}
			seen[l] = k + 1
		}
		if pr.Fracs != nil {
			if len(pr.Fracs) != len(pr.Links) {
				return fmt.Errorf("core: pair %d (%q) has %d fractions for %d links", k, pr.Name, len(pr.Fracs), len(pr.Links))
			}
			if m := modelOrLinear(p.Model); !m.SupportsFracs() {
				return fmt.Errorf("core: pair %d (%q): the %s rate model requires single-path routing (no fractions)", k, pr.Name, m.Name())
			}
			for i, f := range pr.Fracs {
				if !(f > 0 && f <= 1) {
					return invalidInput(fmt.Sprintf("pair %d (%q) fraction", k, pr.Name), i, f, "want (0, 1]")
				}
			}
		}
	}
	return nil
}

// EffectiveRates returns ρ_k for every pair at the rate vector rates,
// under the problem's rate model (the solver-side surrogate; apply
// Model.Deployed for the realized inclusion probability). The rows are
// laid out as the solver compiles them and evaluated by the same model
// hook the solver runs.
func (p *Problem) EffectiveRates(rates []float64) []float64 {
	start, links, fracs := flattenPairs(p.Pairs)
	m := modelOrLinear(p.Model)
	out := make([]float64, len(p.Pairs))
	for k := range out {
		lo, hi := start[k], start[k+1]
		out[k] = m.pairRho(links[lo:hi], rowFracs(fracs, lo, hi), rates)
	}
	return out
}
