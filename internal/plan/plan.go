// Package plan bridges the network substrates and the optimizer: it maps
// a routing matrix, per-link loads and a candidate monitor set onto a
// dense core.Problem, and maps the solved sampling rates back onto
// topology link IDs for deployment and simulation.
package plan

import (
	"fmt"

	"netsamp/internal/core"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// Input assembles everything needed to state a sampling problem.
type Input struct {
	// Matrix holds the routing rows of the OD pairs under study.
	Matrix *routing.Matrix
	// Loads is the packet rate per link, indexed by topology.LinkID.
	Loads []float64
	// Candidates is the monitorable link set L (access links excluded by
	// the caller per the paper's Section V-C).
	Candidates []topology.LinkID
	// InvMeanSizes is E[1/S_k] per OD pair, parameterizing each pair's
	// SRE utility.
	InvMeanSizes []float64
	// Weights optionally skews the objective per pair (nil = equal).
	Weights []float64
	// Budget is θ as a sampled packet rate (use core.BudgetPerInterval).
	Budget float64
	// MaxRates optionally caps each candidate link's sampling rate α_i
	// (nil = 1 everywhere, the paper's Table I setting). Every key must
	// name a link in Candidates; Build rejects strays with a typed
	// core.InputError rather than silently ignoring them.
	MaxRates map[topology.LinkID]float64
	// Model selects the effective-rate model (nil = core.ModelLinear).
	Model core.RateModel
}

// Build constructs the dense problem and the LinkID→dense-index map.
// Pairs that traverse no candidate link are rejected: they would be
// unmeasurable under this candidate set.
func Build(in Input) (*core.Problem, map[topology.LinkID]int, error) {
	if in.Matrix == nil {
		return nil, nil, fmt.Errorf("plan: nil routing matrix")
	}
	if len(in.InvMeanSizes) != len(in.Matrix.Pairs) {
		return nil, nil, fmt.Errorf("plan: %d InvMeanSizes for %d pairs", len(in.InvMeanSizes), len(in.Matrix.Pairs))
	}
	if in.Weights != nil && len(in.Weights) != len(in.Matrix.Pairs) {
		return nil, nil, fmt.Errorf("plan: %d Weights for %d pairs", len(in.Weights), len(in.Matrix.Pairs))
	}
	if len(in.Candidates) == 0 {
		return nil, nil, fmt.Errorf("plan: empty candidate set")
	}
	index := make(map[topology.LinkID]int, len(in.Candidates))
	prob := &core.Problem{
		Budget: in.Budget,
		Model:  in.Model,
	}
	for _, lid := range in.Candidates {
		if _, dup := index[lid]; dup {
			return nil, nil, fmt.Errorf("plan: duplicate candidate link %d", lid)
		}
		if int(lid) < 0 || int(lid) >= len(in.Loads) {
			return nil, nil, fmt.Errorf("plan: candidate link %d outside load table", lid)
		}
		index[lid] = len(prob.Loads)
		prob.Loads = append(prob.Loads, in.Loads[lid])
	}
	if in.MaxRates != nil {
		prob.MaxRate = make([]float64, len(prob.Loads))
		for i := range prob.MaxRate {
			prob.MaxRate[i] = 1
		}
		// Sorted iteration makes the first rejected stray deterministic.
		for _, lid := range topology.SortedKeys(in.MaxRates) {
			i, ok := index[lid]
			if !ok {
				return nil, nil, &core.InputError{
					Field:  "max rate of link",
					Index:  int(lid),
					Value:  in.MaxRates[lid],
					Reason: "link is not in Candidates (a cap on an unmonitorable link would be silently unenforceable)",
				}
			}
			prob.MaxRate[i] = in.MaxRates[lid]
		}
	}
	for k, pr := range in.Matrix.Pairs {
		u, err := core.NewSRE(in.InvMeanSizes[k])
		if err != nil {
			return nil, nil, fmt.Errorf("plan: pair %q: %w", pr.Name, err)
		}
		var links []int
		var fracs []float64
		for j, lid := range in.Matrix.Rows[k] {
			if i, ok := index[lid]; ok {
				links = append(links, i)
				if in.Matrix.Fracs != nil {
					fracs = append(fracs, in.Matrix.Fracs[k][j])
				}
			}
		}
		if len(links) == 0 {
			return nil, nil, fmt.Errorf("plan: pair %q traverses no candidate link", pr.Name)
		}
		p := core.Pair{Name: pr.Name, Links: links, Utility: u, Fracs: fracs}
		if in.Weights != nil {
			p.Weight = in.Weights[k]
		}
		prob.Pairs = append(prob.Pairs, p)
	}
	return prob, index, nil
}

// RatesByLink maps a solution's dense rate vector back to topology link
// IDs, omitting zero rates (monitors that stay off).
func RatesByLink(sol *core.Solution, candidates []topology.LinkID) map[topology.LinkID]float64 {
	out := make(map[topology.LinkID]float64)
	for i, lid := range candidates {
		if sol.Rates[i] > 0 {
			out[lid] = sol.Rates[i]
		}
	}
	return out
}

// EffectiveRates computes the per-pair effective sampling rate of an
// arbitrary per-link rate assignment (not necessarily an optimizer
// output) under the given rate model (nil = core.ModelLinear). The
// result is the deployed inclusion probability: the model's Deployed
// mapping is applied, which clamps the coordinated model's additive
// surrogate at 1 (identity for the other models).
func EffectiveRates(m *routing.Matrix, rates map[topology.LinkID]float64, model core.RateModel) []float64 {
	out := make([]float64, len(m.Pairs))
	EffectiveRatesInto(out, m, rates, model)
	return out
}

// EffectiveRatesInto is EffectiveRates writing into dst (length
// len(m.Pairs)) — the allocation-free form for per-interval loops.
//netsamp:noalloc
func EffectiveRatesInto(dst []float64, m *routing.Matrix, rates map[topology.LinkID]float64, model core.RateModel) {
	if len(dst) != len(m.Pairs) {
		panic("plan: EffectiveRatesInto destination length mismatch")
	}
	if model == nil {
		model = core.ModelLinear
	}
	additive := model.Additive() //netsamp:alloc-ok core's model set is closed and noalloc; interface facts do not cross packages
	for k := range m.Pairs {
		var rho float64
		if additive {
			s := 0.0
			for j, lid := range m.Rows[k] {
				f := 1.0
				if m.Fracs != nil && m.Fracs[k] != nil {
					f = m.Fracs[k][j]
				}
				s += f * rates[lid]
			}
			rho = s
		} else {
			q := 1.0
			for _, lid := range m.Rows[k] {
				q *= 1 - rates[lid]
			}
			rho = 1 - q
		}
		dst[k] = model.Deployed(rho) //netsamp:alloc-ok core's model set is closed and noalloc; interface facts do not cross packages
	}
}

// SampledRate returns Σ p_i·U_i for a per-link assignment. The sum runs
// in link-ID order so the result is bit-reproducible across runs (map
// iteration order would otherwise reorder the float additions).
func SampledRate(rates map[topology.LinkID]float64, loads []float64) float64 {
	lids := topology.SortedKeys(rates)
	t := 0.0
	for _, lid := range lids {
		t += rates[lid] * loads[lid]
	}
	return t
}
