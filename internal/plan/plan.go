// Package plan bridges the network substrates and the optimizer: it maps
// a routing matrix, per-link loads and a candidate monitor set onto the
// solver's core.Problem over dense candidate indices, and maps the
// solved sampling rates back onto topology link IDs for deployment and
// simulation.
package plan

import (
	"fmt"
	"slices"

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

// Build states in as the solver's problem: candidate link Candidates[i]
// becomes dense index i, and routing row k becomes CSR row k over those
// indices, keeping the row's order and dropping its entries on links
// outside the candidate set. Pairs that traverse no candidate link are
// rejected: they would be unmeasurable under this candidate set.
func Build(in Input) (*core.Problem, error) {
	m := in.Matrix
	if m == nil {
		return nil, fmt.Errorf("plan: nil routing matrix")
	}
	nPairs := len(m.Pairs)
	if len(m.Rows) != nPairs || m.Fracs != nil && len(m.Fracs) != nPairs {
		return nil, fmt.Errorf("plan: routing matrix has %d rows and %d fraction rows for %d pairs", len(m.Rows), len(m.Fracs), nPairs)
	}
	if len(in.InvMeanSizes) != nPairs {
		return nil, fmt.Errorf("plan: %d InvMeanSizes for %d pairs", len(in.InvMeanSizes), nPairs)
	}
	if in.Weights != nil && len(in.Weights) != nPairs {
		return nil, fmt.Errorf("plan: %d Weights for %d pairs", len(in.Weights), nPairs)
	}
	if len(in.Candidates) == 0 {
		return nil, fmt.Errorf("plan: empty candidate set")
	}
	// dense[lid] is lid's candidate index, or -1 off the candidate set;
	// denseOf extends the -1 to link IDs outside the load table.
	dense := make([]int32, len(in.Loads))
	for i := range dense {
		dense[i] = -1
	}
	denseOf := func(lid topology.LinkID) int32 {
		if uint(lid) >= uint(len(dense)) {
			return -1
		}
		return dense[lid]
	}
	prob := &core.Problem{
		Loads:     make([]float64, len(in.Candidates)),
		Budget:    in.Budget,
		Start:     make([]int32, nPairs+1),
		Utilities: make([]core.Utility, nPairs),
		Weights:   slices.Clone(in.Weights),
		Model:     in.Model,
	}
	for i, lid := range in.Candidates {
		if uint(lid) >= uint(len(dense)) {
			return nil, fmt.Errorf("plan: candidate link %d outside load table", lid)
		}
		if dense[lid] >= 0 {
			return nil, fmt.Errorf("plan: duplicate candidate link %d", lid)
		}
		dense[lid] = int32(i)
		prob.Loads[i] = in.Loads[lid]
	}
	if in.MaxRates != nil {
		prob.MaxRate = make([]float64, len(prob.Loads))
		for i := range prob.MaxRate {
			prob.MaxRate[i] = 1
		}
		// Sorted iteration makes the first rejected stray deterministic.
		for _, lid := range topology.SortedKeys(in.MaxRates) {
			i := denseOf(lid)
			if i < 0 {
				return nil, &core.InputError{
					Field:  "max rate of link",
					Index:  int(lid),
					Value:  in.MaxRates[lid],
					Reason: "link is not in Candidates (a cap on an unmonitorable link would be silently unenforceable)",
				}
			}
			prob.MaxRate[i] = in.MaxRates[lid]
		}
	}
	nnz := 0
	for _, row := range m.Rows {
		nnz += len(row)
	}
	prob.Links = make([]int32, 0, nnz)
	if m.Fracs != nil {
		prob.Fracs = make([]float64, 0, nnz)
	}
	for k, pr := range m.Pairs {
		u, err := core.NewSRE(in.InvMeanSizes[k])
		if err != nil {
			return nil, fmt.Errorf("plan: pair %q: %w", pr.Name, err)
		}
		prob.Utilities[k] = u
		row := m.Rows[k]
		var fracs []float64
		if m.Fracs != nil {
			// A nil fraction row is single-path: every fraction is 1.
			if fracs = m.Fracs[k]; fracs != nil && len(fracs) != len(row) {
				return nil, fmt.Errorf("plan: pair %q has %d fractions for %d links", pr.Name, len(fracs), len(row))
			}
		}
		for j, lid := range row {
			i := denseOf(lid)
			if i < 0 {
				continue
			}
			prob.Links = append(prob.Links, i)
			if m.Fracs != nil {
				f := 1.0
				if fracs != nil {
					f = fracs[j]
				}
				prob.Fracs = append(prob.Fracs, f)
			}
		}
		if int(prob.Start[k]) == len(prob.Links) {
			return nil, fmt.Errorf("plan: pair %q traverses no candidate link", pr.Name)
		}
		prob.Start[k+1] = int32(len(prob.Links))
	}
	// A compiled plan can outlive many intervals in a plan cache, so the
	// rows keep no slack from the dropped non-candidate entries.
	if cap(prob.Links) > len(prob.Links) {
		prob.Links, prob.Fracs = slices.Clone(prob.Links), slices.Clone(prob.Fracs)
	}
	return prob, nil
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
//
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
