package eval

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netsamp/internal/core"
	"netsamp/internal/engine"
	"netsamp/internal/geant"
	"netsamp/internal/plan"
	"netsamp/internal/rng"
	"netsamp/internal/sampling"
	"netsamp/internal/topology"
)

// CoordinationStudy quantifies what coordinated (cSamp-style) flow-space
// sampling buys over independent per-monitor sampling at equal budget θ.
//
// Under independent sampling a packet crossing several monitors can be
// sampled more than once; the pair's inclusion probability is the
// product model 1−Π(1−p_i) and the duplicates consume budget without
// adding information. Under coordination the monitors on a pair's path
// partition the flow-hash space (plan.Coordinate), so the same per-link
// rates deliver the additive coverage min(1, Σ f_ki·p_i) — never lower
// than the product, strictly higher whenever two monitors both sample a
// pair. The study sweeps θ, solves the same instance under both rate
// models, and reports the deployed per-pair coverages plus simulated
// estimation accuracies.

// CoordinationPoint is one θ abscissa of the study.
type CoordinationPoint struct {
	Theta float64 // packets per interval
	// Independent and Coordinated summarize the simulated estimation
	// accuracy of each deployment at its own optimum.
	Independent sampling.Summary
	Coordinated sampling.Summary
	// MeanRho* and WorstRho* are the deployed per-pair coverages
	// (inclusion probabilities on the wire) of each optimum.
	MeanRhoIndependent  float64
	MeanRhoCoordinated  float64
	WorstRhoIndependent float64
	WorstRhoCoordinated float64
	// MeanGainSameRates isolates the coordination effect from the
	// optimizer: it evaluates the coordinated coverage AT the
	// independent optimum's per-link rates and averages the per-pair
	// gain over the product-model coverage. Non-negative by
	// construction (Σ f·p ≥ 1−Π(1−p) until the clamp at 1).
	MeanGainSameRates float64
}

// CoordinationStudy sweeps the θ grid (nil selects DefaultThetas) on the
// GEANT scenario; workers = 0 selects GOMAXPROCS. Like Figure2 it runs
// in two phases: a continuation phase that sweeps θ top-down in
// fixed-size chunks — one chain per (rate model, chunk), compiled once
// and re-tuned per grid point with warm starts — and a simulation phase
// with one split-seeded engine job per θ. Both phases are bit-identical
// for every worker count.
func CoordinationStudy(ctx context.Context, s *geant.Scenario, thetas []float64, trials int, seed uint64, workers int) ([]CoordinationPoint, error) {
	if len(thetas) == 0 {
		thetas = DefaultThetas()
	}
	inv := s.UtilityParams(Interval)
	sizes := s.PairSizes(Interval)
	models := []core.RateModel{core.ModelIndependentExact, core.ModelCoordinated}

	// Phase 1: continuation chains over the θ grid, one job per
	// (model, chunk). Jobs write disjoint slots of rates.
	nChunks := (len(thetas) + figure2ChunkSize - 1) / figure2ChunkSize
	rates := make([][2]map[topology.LinkID]float64, len(thetas))
	_, err := engine.Map(ctx, engine.Options{Workers: workers}, len(models)*nChunks,
		func(_ context.Context, job int, _ *rng.Source) (struct{}, error) {
			variant, chunk := job/nChunks, job%nChunks
			lo := chunk * figure2ChunkSize
			hi := lo + figure2ChunkSize
			if hi > len(thetas) {
				hi = len(thetas)
			}
			var (
				comp *plan.Compiled
				prev *core.Solution
				warm []float64
			)
			for i := hi - 1; i >= lo; i-- {
				theta := thetas[i]
				in := plan.Input{
					Matrix:       s.Matrix,
					Loads:        s.Loads,
					Candidates:   s.MonitorLinks,
					InvMeanSizes: inv,
					Budget:       core.BudgetPerInterval(theta, Interval),
					Model:        models[variant],
				}
				var err error
				if comp == nil {
					comp, err = plan.Compile(in)
				} else {
					err = comp.Retune(in)
				}
				if err != nil {
					return struct{}{}, fmt.Errorf("eval: coordinate θ=%v: %w", theta, err)
				}
				opt := core.Options{}
				if prev != nil {
					if warm, err = comp.Solver().WarmStart(prev, warm); err != nil {
						return struct{}{}, fmt.Errorf("eval: coordinate θ=%v: %w", theta, err)
					}
					opt.Initial = warm
				}
				sol, err := comp.Solver().Solve(opt)
				if err != nil {
					return struct{}{}, fmt.Errorf("eval: coordinate θ=%v: %w", theta, err)
				}
				rates[i][variant] = plan.RatesByLink(sol, s.MonitorLinks)
				prev = sol
			}
			return struct{}{}, nil
		})
	if err != nil {
		return nil, err
	}

	// Phase 2: deployed coverages and sampling experiments, one job
	// per θ.
	return engine.Map(ctx, engine.Options{Workers: workers, Seed: seed}, len(thetas),
		func(_ context.Context, i int, r *rng.Source) (CoordinationPoint, error) {
			point := CoordinationPoint{Theta: thetas[i]}
			indepRho := plan.EffectiveRates(s.Matrix, rates[i][0], core.ModelIndependentExact)
			coordRho := plan.EffectiveRates(s.Matrix, rates[i][1], core.ModelCoordinated)
			// The coordination effect alone: same per-link rates, two
			// sampling disciplines.
			coordAtIndep := plan.EffectiveRates(s.Matrix, rates[i][0], core.ModelCoordinated)
			point.WorstRhoIndependent, point.WorstRhoCoordinated = 1, 1
			for k := range indepRho {
				point.MeanRhoIndependent += indepRho[k]
				point.MeanRhoCoordinated += coordRho[k]
				point.MeanGainSameRates += coordAtIndep[k] - indepRho[k]
				if indepRho[k] < point.WorstRhoIndependent {
					point.WorstRhoIndependent = indepRho[k]
				}
				if coordRho[k] < point.WorstRhoCoordinated {
					point.WorstRhoCoordinated = coordRho[k]
				}
			}
			n := float64(len(indepRho))
			point.MeanRhoIndependent /= n
			point.MeanRhoCoordinated /= n
			point.MeanGainSameRates /= n
			simulate := func(rho []float64) (sampling.Summary, error) {
				results := make([]sampling.Result, 0, len(s.Pairs))
				for k := range s.Pairs {
					exp, err := sampling.Experiment(s.Pairs[k].Name, sizes[k], rho[k], trials, r.Split())
					if err != nil {
						return sampling.Summary{}, err
					}
					results = append(results, exp)
				}
				return sampling.Summarize(results), nil
			}
			var err error
			if point.Independent, err = simulate(indepRho); err != nil {
				return point, err
			}
			if point.Coordinated, err = simulate(coordRho); err != nil {
				return point, err
			}
			return point, nil
		})
}

// RenderCoordination writes the study as a per-θ table.
func RenderCoordination(w io.Writer, points []CoordinationPoint) error {
	if _, err := fmt.Fprintf(w, "Coordinated vs independent sampling — deployed coverage and accuracy vs θ\n\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%10s | %10s %10s | %10s %10s | %10s %10s | %10s\n",
		"theta", "mean indep", "mean coord", "wrst indep", "wrst coord", "acc indep", "acc coord", "gain@rates")
	fmt.Fprintln(w, strings.Repeat("-", 106))
	for _, p := range points {
		fmt.Fprintf(w, "%10.0f | %10.6f %10.6f | %10.6f %10.6f | %10.4f %10.4f | %10.6f\n",
			p.Theta, p.MeanRhoIndependent, p.MeanRhoCoordinated,
			p.WorstRhoIndependent, p.WorstRhoCoordinated,
			p.Independent.Average, p.Coordinated.Average, p.MeanGainSameRates)
	}
	fmt.Fprintln(w, "\ngain@rates: mean per-pair coverage gained by coordinating the independent")
	fmt.Fprintln(w, "optimum's own per-link rates (duplicate samples recycled into coverage).")
	return nil
}

// CoordinationCSV flattens the study for -csv output.
func CoordinationCSV(points []CoordinationPoint) (header []string, rows [][]string) {
	header = []string{
		"theta",
		"mean_rho_independent", "mean_rho_coordinated",
		"worst_rho_independent", "worst_rho_coordinated",
		"accuracy_independent", "accuracy_coordinated",
		"mean_gain_same_rates",
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, p := range points {
		rows = append(rows, []string{
			f(p.Theta),
			f(p.MeanRhoIndependent), f(p.MeanRhoCoordinated),
			f(p.WorstRhoIndependent), f(p.WorstRhoCoordinated),
			f(p.Independent.Average), f(p.Coordinated.Average),
			f(p.MeanGainSameRates),
		})
	}
	return header, rows
}
