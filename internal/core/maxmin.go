package core

import (
	"context"
	"math"
)

// MaxMinOptions tunes SolveMaxMin. The zero value selects sensible
// defaults.
type MaxMinOptions struct {
	// Rounds is the number of reweighting rounds (0 selects 40).
	Rounds int
	// Solve carries the inner gradient-projection options.
	Solve Options
}

func (o MaxMinOptions) rounds() int {
	if o.Rounds <= 0 {
		return 40
	}
	return o.Rounds
}

const (
	// maxMinEta is the softmax sharpness of the reweighting: larger
	// values focus more weight on the currently-worst pairs.
	maxMinEta = 60
	// maxMinDamping blends consecutive weight vectors,
	// w ← (1−d)·w + d·w_new.
	maxMinDamping = 0.5
)

// SolveMaxMin approximately maximizes the alternative objective the
// paper defers to future work (Section III): min_k M(ρ_k(p)), i.e. the
// utility of the worst-measured OD pair.
//
// The max-min objective is not differentiable everywhere, which breaks
// the Newton line search (the paper makes exactly this observation), so
// SolveMaxMin uses iterated reweighting: the weighted-sum problem is
// solved repeatedly with weights concentrated — by a softmax of
// sharpness maxMinEta — on the pairs whose utility is currently lowest. Each
// round is a full KKT-verified convex solve; across rounds the weight
// vector converges toward the optimal dual weights of the max-min
// program. The best-minimum solution over all rounds is returned.
//
// This is a heuristic for the outer (weight) iteration, not a certified
// optimum of the max-min program; the stated-problem solver with its
// optimality certificate remains Solve.
func SolveMaxMin(p *Problem, opt MaxMinOptions) (*Solution, error) {
	return SolveMaxMinContext(context.Background(), p, opt)
}

// SolveMaxMinContext is SolveMaxMin with cancellation between reweighting
// rounds. All rounds share one compiled Solver workspace — the weights
// are re-tuned through Solver.SetWeights, so the caller's Problem is
// never mutated and the per-round solves reuse every buffer.
func SolveMaxMinContext(ctx context.Context, p *Problem, opt MaxMinOptions) (*Solution, error) {
	s, err := NewSolver(p)
	if err != nil {
		return nil, err
	}
	nPairs := len(p.Pairs)
	weights := make([]float64, nPairs)
	for k := range weights {
		weights[k] = 1
	}

	var best *Solution
	bestMin := math.Inf(-1)
	for round := 0; round < opt.rounds(); round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.SetWeights(weights); err != nil {
			return nil, err
		}
		sol, err := s.Solve(opt.Solve)
		if err != nil {
			return nil, err
		}
		// Track the best minimum achieved; report per-pair utilities
		// unweighted.
		minU := math.Inf(1)
		for k := range p.Pairs {
			u := p.Pairs[k].Utility.Value(sol.Rho[k])
			sol.Utilities[k] = u
			if u < minU {
				minU = u
			}
		}
		sol.Objective = minU
		if minU > bestMin {
			bestMin = minU
			best = sol
		}
		// Reweight: softmax over (minU − u_k), so the worst pair gets the
		// largest weight. Normalize to mean 1 to keep the objective scale
		// stable across rounds.
		sum := 0.0
		next := make([]float64, nPairs)
		for k := range next {
			next[k] = math.Exp(maxMinEta * (minU - sol.Utilities[k]))
			sum += next[k]
		}
		for k := range next {
			next[k] *= float64(nPairs) / sum
			weights[k] = (1-maxMinDamping)*weights[k] + maxMinDamping*next[k]
		}
	}
	return best, nil
}
