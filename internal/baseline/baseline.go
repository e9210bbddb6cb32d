// Package baseline implements the alternative monitoring strategies the
// paper compares against (Section V-C) plus a two-phase heuristic in the
// spirit of Suh et al. ("Locating network monitors: complexity,
// heuristics and coverage", Infocom 2006), the closest prior work.
//
//   - AccessLink: monitor only the customer's access link. Every sampled
//     packet belongs to the task, but small OD pairs force a high rate
//     on a heavily loaded link — and the CPE may not be monitorable.
//   - Restricted: run the full optimizer over a restricted candidate set
//     (the paper restricts to the six UK links).
//   - Uniform: one network-wide sampling rate on every candidate link,
//     chosen to exhaust the budget (what ISPs deploy today, per the
//     paper's introduction: "enable NetFlow on all routers but using
//     very low sampling rates").
//   - TwoPhaseGreedy: first choose monitor locations by greedy coverage
//     of the OD traffic, then split the budget across the chosen links —
//     placement and rate selection decoupled, unlike the paper's joint
//     formulation.
package baseline

import (
	"context"
	"fmt"
	"sort"

	"netsamp/internal/core"
	"netsamp/internal/engine"
	"netsamp/internal/plan"
	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// Assignment is a per-link sampling-rate assignment produced by a
// baseline strategy.
type Assignment struct {
	Name  string
	Rates map[topology.LinkID]float64
	// Rho is the per-pair effective sampling rate under the assignment.
	Rho []float64
}

// AccessLink monitors only the given link (the customer access circuit)
// and spends the whole budget on it. It returns an error if the budget
// exceeds the link's samplable rate.
func AccessLink(m *routing.Matrix, loads []float64, link topology.LinkID, budget float64) (*Assignment, error) {
	if int(link) < 0 || int(link) >= len(loads) {
		return nil, fmt.Errorf("baseline: link %d outside load table", link)
	}
	u := loads[link]
	if u <= 0 {
		return nil, fmt.Errorf("baseline: access link %d carries no traffic", link)
	}
	p := budget / u
	if p > 1 {
		return nil, fmt.Errorf("baseline: budget %v needs rate %v > 1 on access link", budget, p)
	}
	rates := map[topology.LinkID]float64{link: p}
	return &Assignment{
		Name:  "access-link",
		Rates: rates,
		Rho:   plan.EffectiveRates(m, rates, nil),
	}, nil
}

// AccessLinkCapacityForRate returns the budget (sampled pkt/s) that
// access-link-only monitoring needs to give every OD pair an effective
// sampling rate of at least targetRho: the access link carries all pairs,
// so p = targetRho and the cost is targetRho·U_access. This is the
// paper's Section V-C capacity comparison (the "70% higher θ" argument).
func AccessLinkCapacityForRate(loads []float64, link topology.LinkID, targetRho float64) float64 {
	return targetRho * loads[link]
}

// Restricted runs the full optimizer over a restricted candidate set and
// labels the result. The paper's instance restricts to the six UK links.
func Restricted(name string, in plan.Input, opt core.Options) (*Assignment, *core.Solution, error) {
	comp, err := plan.Compile(in)
	if err != nil {
		return nil, nil, err
	}
	sol, err := comp.Solver().Solve(opt)
	if err != nil {
		return nil, nil, err
	}
	rates := plan.RatesByLink(sol, in.Candidates)
	return &Assignment{
		Name:  name,
		Rates: rates,
		Rho:   plan.EffectiveRates(in.Matrix, rates, in.Model),
	}, sol, nil
}

// Uniform assigns the same sampling rate to every candidate link,
// exhausting the budget: p = θ / Σ U_i. It returns an error if that rate
// exceeds 1.
func Uniform(m *routing.Matrix, loads []float64, candidates []topology.LinkID, budget float64) (*Assignment, error) {
	total := 0.0
	for _, lid := range candidates {
		if int(lid) < 0 || int(lid) >= len(loads) {
			return nil, fmt.Errorf("baseline: link %d outside load table", lid)
		}
		total += loads[lid]
	}
	if total <= 0 {
		return nil, fmt.Errorf("baseline: candidate set carries no traffic")
	}
	p := budget / total
	if p > 1 {
		return nil, fmt.Errorf("baseline: uniform rate %v > 1", p)
	}
	rates := make(map[topology.LinkID]float64, len(candidates))
	for _, lid := range candidates {
		rates[lid] = p
	}
	return &Assignment{
		Name:  "uniform",
		Rates: rates,
		Rho:   plan.EffectiveRates(m, rates, nil),
	}, nil
}

// TwoPhaseGreedy decouples placement from rate selection:
//
// Phase 1 greedily picks links that cover the most not-yet-covered OD
// traffic (by pair rate) until every pair is covered or maxMonitors is
// reached.
//
// Phase 2 splits the budget across the chosen links proportionally to
// the OD traffic they carry, i.e. p_i ∝ (covered rate on i)/U_i,
// normalized to exhaust the budget (capped at 1).
//
// pairRates[k] is the intensity of pair k, used as the coverage value.
func TwoPhaseGreedy(m *routing.Matrix, loads []float64, candidates []topology.LinkID, pairRates []float64, budget float64, maxMonitors int) (*Assignment, error) {
	if len(pairRates) != len(m.Pairs) {
		return nil, fmt.Errorf("baseline: %d pairRates for %d pairs", len(pairRates), len(m.Pairs))
	}
	if maxMonitors <= 0 {
		maxMonitors = len(candidates)
	}
	inSet := make(map[topology.LinkID]bool, len(candidates))
	for _, lid := range candidates {
		inSet[lid] = true
	}
	covered := make([]bool, len(m.Pairs))
	var chosen []topology.LinkID
	for len(chosen) < maxMonitors {
		var best topology.LinkID = -1
		bestGain := 0.0
		for _, lid := range candidates {
			if !inSet[lid] {
				continue
			}
			gain := 0.0
			for k := range m.Pairs {
				if !covered[k] && m.Traverses(k, lid) {
					gain += pairRates[k]
				}
			}
			if gain > bestGain {
				bestGain, best = gain, lid
			}
		}
		if best < 0 {
			break // nothing left to cover
		}
		chosen = append(chosen, best)
		inSet[best] = false
		for k := range m.Pairs {
			if m.Traverses(k, best) {
				covered[k] = true
			}
		}
		all := true
		for _, c := range covered {
			all = all && c
		}
		if all {
			break
		}
	}
	if len(chosen) == 0 {
		return nil, fmt.Errorf("baseline: greedy chose no monitors")
	}
	sort.Slice(chosen, func(i, j int) bool { return chosen[i] < chosen[j] })

	// Phase 2: weight each chosen link by the OD traffic share it carries
	// relative to its total load, then scale to the budget.
	weight := make(map[topology.LinkID]float64, len(chosen))
	for _, lid := range chosen {
		odRate := 0.0
		for k := range m.Pairs {
			if m.Traverses(k, lid) {
				odRate += pairRates[k]
			}
		}
		weight[lid] = odRate / loads[lid]
	}
	// Find scale s with Σ min(1, s·w_i)·U_i = budget (monotone: bisect).
	cost := func(s float64) float64 {
		t := 0.0
		for _, lid := range chosen {
			p := s * weight[lid]
			if p > 1 {
				p = 1
			}
			t += p * loads[lid]
		}
		return t
	}
	maxCost := cost(1e18)
	if budget > maxCost {
		return nil, fmt.Errorf("baseline: budget %v exceeds samplable %v on chosen set", budget, maxCost)
	}
	lo, hi := 0.0, 1e18
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if cost(mid) < budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	s := (lo + hi) / 2
	rates := make(map[topology.LinkID]float64, len(chosen))
	for _, lid := range chosen {
		p := s * weight[lid]
		if p > 1 {
			p = 1
		}
		rates[lid] = p
	}
	return &Assignment{
		Name:  "two-phase-greedy",
		Rates: rates,
		Rho:   plan.EffectiveRates(m, rates, nil),
	}, nil
}

// FixedRate enables NetFlow on every candidate link at one fixed
// sampling rate (e.g. 1/1000) — the practice the paper's introduction
// attributes to ISPs today: "enable NetFlow on all routers but using
// very low sampling rates to minimize potential network impact". The
// budget it consumes is implied by the rate; plan.SampledRate reports
// it so the optimizer can be run at the same cost for a fair comparison.
func FixedRate(m *routing.Matrix, loads []float64, candidates []topology.LinkID, rate float64) (*Assignment, error) {
	if !(rate > 0 && rate <= 1) {
		return nil, fmt.Errorf("baseline: fixed rate %v out of (0, 1]", rate)
	}
	rates := make(map[topology.LinkID]float64, len(candidates))
	for _, lid := range candidates {
		if int(lid) < 0 || int(lid) >= len(loads) {
			return nil, fmt.Errorf("baseline: link %d outside load table", lid)
		}
		rates[lid] = rate
	}
	return &Assignment{
		Name:  "fixed-rate",
		Rates: rates,
		Rho:   plan.EffectiveRates(m, rates, nil),
	}, nil
}

// Comparator is one deferred baseline evaluation for CompareAll: a
// strategy name plus the closure that builds its assignment.
type Comparator struct {
	Name  string
	Build func() (*Assignment, error)
}

// Standard returns the comparator set the evaluation sweeps run against
// the optimizer at a shared budget: uniform network-wide sampling and
// the decoupled two-phase placement heuristic.
func Standard(m *routing.Matrix, loads []float64, candidates []topology.LinkID, pairRates []float64, budget float64) []Comparator {
	return []Comparator{
		{Name: "uniform", Build: func() (*Assignment, error) {
			return Uniform(m, loads, candidates, budget)
		}},
		{Name: "two-phase-greedy", Build: func() (*Assignment, error) {
			return TwoPhaseGreedy(m, loads, candidates, pairRates, budget, 0)
		}},
	}
}

// CompareAll evaluates the comparators concurrently on the engine's
// worker pool (workers = 0 selects GOMAXPROCS) and returns the
// assignments in comparator order. A failing comparator is reported with
// its name; the others still complete.
func CompareAll(ctx context.Context, workers int, comps []Comparator) ([]*Assignment, error) {
	return engine.Map(ctx, engine.Options{Workers: workers}, len(comps),
		func(_ context.Context, i int, _ *rng.Source) (*Assignment, error) {
			a, err := comps[i].Build()
			if err != nil {
				return nil, fmt.Errorf("baseline: %s: %w", comps[i].Name, err)
			}
			return a, nil
		})
}
