// Package eval regenerates every table and figure of the paper's
// evaluation (Section V) on the synthetic GEANT scenario, plus the
// in-text statistics of Section IV-D:
//
//	Figure 1 — the utility function M(ρ) for two mean flow sizes;
//	Table I  — optimal sampling rates, per-pair utilities/accuracies,
//	           link loads and budget contributions at θ = 100,000
//	           packets per 5-minute interval;
//	Figure 2 — average/worst/best accuracy versus θ, full optimizer
//	           against the UK-links-only restriction;
//	§IV-D    — convergence statistics over randomized instances;
//	§V-C     — the access-link capacity comparison.
package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"netsamp/internal/baseline"
	"netsamp/internal/core"
	"netsamp/internal/engine"
	"netsamp/internal/geant"
	"netsamp/internal/plan"
	"netsamp/internal/rng"
	"netsamp/internal/sampling"
	"netsamp/internal/topology"
	"netsamp/internal/traffic"
)

// Interval is the measurement interval (seconds) all experiments use.
const Interval = traffic.DefaultInterval

// Figure1Point is one abscissa of Figure 1.
type Figure1Point struct {
	Rho    float64
	M1, M2 float64 // utility for the two E[1/S] values
}

// Figure1Result reproduces Figure 1: M(ρ) for two mean flow sizes, with
// the stitching points x₀ annotated (the paper plots E[1/S] = 0.002,
// "average size 500", and E[1/S] ≈ 0.000667, "average size 1500").
type Figure1Result struct {
	C1, C2     float64
	X01, X02   float64
	MX01, MX02 float64
	Points     []Figure1Point
}

// Figure1 evaluates the two utilities on n points over [0, 1].
func Figure1(n int) Figure1Result {
	if n < 2 {
		n = 2
	}
	u1 := core.MustSRE(0.002)
	u2 := core.MustSRE(1.0 / 1500)
	res := Figure1Result{
		C1: u1.C, C2: u2.C,
		X01: u1.X0, X02: u2.X0,
		MX01: u1.Value(u1.X0), MX02: u2.Value(u2.X0),
	}
	for i := 0; i < n; i++ {
		rho := float64(i) / float64(n-1)
		res.Points = append(res.Points, Figure1Point{Rho: rho, M1: u1.Value(rho), M2: u2.Value(rho)})
	}
	return res
}

// Table1Link is one active monitor column of Table I.
type Table1Link struct {
	Link         topology.LinkID
	Name         string
	Rate         float64 // optimal sampling probability p_i
	Load         float64 // pkt/s
	Contribution float64 // fraction of θ consumed: p_i·U_i / θ
	Pairs        []string
}

// Table1Row is one OD-pair row of Table I.
type Table1Row struct {
	Name      string
	RatePkts  float64  // OD intensity, pkt/s
	Monitored []string // links where the pair is sampled
	Utility   float64
	Accuracy  float64 // mean 1−|X/ρ−S|/S over the sampling experiments
}

// Table1Result reproduces Table I.
type Table1Result struct {
	Theta    float64 // packets per interval
	Links    []Table1Link
	Rows     []Table1Row
	Solution *core.Solution
	// MaxMonitorsPerPair is the largest number of links any pair is
	// sampled on (the paper observes at most two).
	MaxMonitorsPerPair int
}

// Table1 solves the JANET task at θ packets per interval and runs
// `trials` sampling experiments per pair (the paper uses 20).
func Table1(s *geant.Scenario, theta float64, trials int, seed uint64) (*Table1Result, error) {
	budget := core.BudgetPerInterval(theta, Interval)
	prob, err := plan.Build(plan.Input{
		Matrix:       s.Matrix,
		Loads:        s.Loads,
		Candidates:   s.MonitorLinks,
		InvMeanSizes: s.UtilityParams(Interval),
		Budget:       budget,
	})
	if err != nil {
		return nil, err
	}
	sol, err := core.Solve(prob, core.Options{})
	if err != nil {
		return nil, err
	}
	rates := plan.RatesByLink(sol, s.MonitorLinks)

	res := &Table1Result{Theta: theta, Solution: sol}
	// Active monitor columns, ordered by link ID for stability.
	active := topology.SortedKeys(rates)
	for _, lid := range active {
		col := Table1Link{
			Link:         lid,
			Name:         s.Graph.LinkName(lid),
			Rate:         rates[lid],
			Load:         s.Loads[lid],
			Contribution: rates[lid] * s.Loads[lid] / budget,
		}
		for _, k := range s.Matrix.PairsOnLink(lid) {
			col.Pairs = append(col.Pairs, s.Pairs[k].Name)
		}
		res.Links = append(res.Links, col)
	}

	// OD rows with simulated accuracies.
	r := rng.New(seed)
	sizes := s.PairSizes(Interval)
	for k, pr := range s.Pairs {
		row := Table1Row{
			Name:     pr.Name,
			RatePkts: s.Rates[k],
			Utility:  sol.Utilities[k],
		}
		for _, lid := range s.Matrix.Rows[k] {
			if rates[lid] > 0 {
				row.Monitored = append(row.Monitored, s.Graph.LinkName(lid))
			}
		}
		if len(row.Monitored) > res.MaxMonitorsPerPair {
			res.MaxMonitorsPerPair = len(row.Monitored)
		}
		exp, err := sampling.Experiment(pr.Name, sizes[k], sol.Rho[k], trials, r.Split())
		if err != nil {
			return nil, err
		}
		row.Accuracy = exp.MeanAccuracy
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Figure2Point is one θ abscissa of Figure 2.
type Figure2Point struct {
	Theta   float64 // packets per interval
	Optimal sampling.Summary
	UKOnly  sampling.Summary
}

// figure2ChunkSize is the continuation chunk of the Figure 2 sweep:
// each (candidate set, chunk of the θ grid) pair is one continuation
// chain. The chunking is a fixed function of the grid — never of the
// worker count — so the chains, and therefore the results, are
// bit-identical for every worker count.
const figure2ChunkSize = 4

// Figure2 sweeps θ and, for each value, simulates the accuracy of the
// full optimal solution and of the optimizer restricted to the six UK
// links (the paper's comparison), on the engine's worker pool (workers
// = 0 selects GOMAXPROCS). It runs in two phases. The optimization phase
// sweeps θ in continuation chains: each candidate-set variant compiles
// its problem once (plan.Compile), re-tunes only the budget between
// grid points, and warm-starts every solve from the previous θ's
// optimum (core.Solver.WarmStart) — the solver family's standard trick
// for related instances. The simulation phase then runs the sampling
// experiments with one engine job per θ, each with its own split-seeded
// random stream, so the result is bit-identical for every worker count
// (the chains are chunked by the fixed figure2ChunkSize, and the solves
// consume no randomness at all).
func Figure2(ctx context.Context, s *geant.Scenario, thetas []float64, trials int, seed uint64, workers int) ([]Figure2Point, error) {
	inv := s.UtilityParams(Interval)
	sizes := s.PairSizes(Interval)
	variants := [][]topology.LinkID{s.MonitorLinks, s.UKLinks}

	// Phase 1: continuation chains over the θ grid, one job per
	// (variant, chunk). Jobs write disjoint slots of sols.
	nChunks := (len(thetas) + figure2ChunkSize - 1) / figure2ChunkSize
	sols := make([][2]*core.Solution, len(thetas))
	_, err := engine.Map(ctx, engine.Options{Workers: workers}, len(variants)*nChunks,
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
			// The chain runs its chunk top-down: projecting an optimum onto
			// a SMALLER budget is a pure rescale that keeps the active
			// monitor set intact, so descending continuation converges in
			// one or two Newton steps per grid point, where ascending
			// continuation has to waterfill and re-discover activations.
			for i := hi - 1; i >= lo; i-- {
				theta := thetas[i]
				in := plan.Input{
					Matrix:       s.Matrix,
					Loads:        s.Loads,
					Candidates:   variants[variant],
					InvMeanSizes: inv,
					Budget:       core.BudgetPerInterval(theta, Interval),
				}
				var err error
				if comp == nil {
					comp, err = plan.Compile(in)
				} else {
					err = comp.Retune(in)
				}
				if err != nil {
					return struct{}{}, fmt.Errorf("eval: θ=%v: %w", theta, err)
				}
				opt := core.Options{}
				if prev != nil {
					if warm, err = comp.Solver().WarmStart(prev, warm); err != nil {
						return struct{}{}, fmt.Errorf("eval: θ=%v: %w", theta, err)
					}
					opt.Initial = warm
				}
				sol, err := comp.Solver().Solve(opt)
				if err != nil {
					return struct{}{}, fmt.Errorf("eval: θ=%v: %w", theta, err)
				}
				sols[i][variant] = sol
				prev = sol
			}
			return struct{}{}, nil
		})
	if err != nil {
		return nil, err
	}

	// Phase 2: sampling experiments, one job per θ with the same
	// split-seeded stream layout the sweep has always used.
	return engine.Map(ctx, engine.Options{Workers: workers, Seed: seed}, len(thetas),
		func(_ context.Context, i int, r *rng.Source) (Figure2Point, error) {
			point := Figure2Point{Theta: thetas[i]}
			for variant := range variants {
				sol := sols[i][variant]
				results := make([]sampling.Result, 0, len(s.Pairs))
				for k := range s.Pairs {
					exp, err := sampling.Experiment(s.Pairs[k].Name, sizes[k], sol.Rho[k], trials, r.Split())
					if err != nil {
						return point, err
					}
					results = append(results, exp)
				}
				if variant == 0 {
					point.Optimal = sampling.Summarize(results)
				} else {
					point.UKOnly = sampling.Summarize(results)
				}
			}
			return point, nil
		})
}

// DefaultThetas is the Figure 2 sweep: log-spaced budgets from 10k to
// 1M sampled packets per interval.
func DefaultThetas() []float64 {
	return []float64{10000, 20000, 50000, 100000, 200000, 500000, 1000000}
}

// ConvergenceResult reproduces the Section IV-D statistics: the paper
// reports 98.6% of runs converging within 2000 iterations and 1.64±1.27
// constraint-removal events per run over 200 randomized executions.
type ConvergenceResult struct {
	Runs           int
	Converged      int
	PctConverged   float64
	MeanRemovals   float64
	StdRemovals    float64
	MeanIterations float64
	MaxIterations  int
}

// convergenceChunkSize is the number of randomized runs each worker job
// solves on one shared compiled plan. Like figure2ChunkSize it is a
// fixed function of the run grid, never of the worker count.
const convergenceChunkSize = 16

// ConvergenceStudy runs the solver on `runs` randomized instances —
// per-run jitter on OD sizes, link loads and θ, as in the paper ("each
// time with a different set of input parameters") — under the solver
// options opt (the zero value is the production solver; the Newton
// step on the free subspace converges every additive run whatever the
// preconditioner setting, so DisablePreconditioner alone does not
// reproduce the paper's plain method). The instances run on the
// engine's worker pool and the per-run statistics aggregate in run
// order. The runs are grouped
// into fixed-size chunks; each chunk compiles the problem structure once
// (the matrix and candidate set never change — only loads, utility
// parameters and θ are jittered) and re-tunes it per run through the
// plan.Compiled path. Every run still draws its jitter from its own
// split-seeded stream (rng.SplitSeed(seed, run)) and starts cold from
// the waterfilling point, so the per-run solver statistics — the
// study's whole output — are bit-identical to solving each instance
// from scratch, for every worker count. workers = 0 selects GOMAXPROCS.
func ConvergenceStudy(ctx context.Context, s *geant.Scenario, runs int, seed uint64, opt core.Options, workers int) (*ConvergenceResult, error) {
	if runs <= 0 {
		runs = 200
	}
	inv := s.UtilityParams(Interval)
	nChunks := (runs + convergenceChunkSize - 1) / convergenceChunkSize
	stats := make([]core.Stats, runs)
	_, err := engine.Map(ctx, engine.Options{Workers: workers}, nChunks,
		func(_ context.Context, chunk int, _ *rng.Source) (struct{}, error) {
			lo := chunk * convergenceChunkSize
			hi := lo + convergenceChunkSize
			if hi > runs {
				hi = runs
			}
			var comp *plan.Compiled
			loads := make([]float64, len(s.Loads))
			invRun := make([]float64, len(inv))
			for run := lo; run < hi; run++ {
				r := rng.New(rng.SplitSeed(seed, uint64(run)))
				for i, u := range s.Loads {
					loads[i] = u * r.LogNormal(0, 0.4)
				}
				for k, c := range inv {
					invRun[k] = math.Min(1, c*r.LogNormal(0, 0.3))
				}
				theta := 20000 + r.Float64()*480000 // packets per interval
				in := plan.Input{
					Matrix:       s.Matrix,
					Loads:        loads,
					Candidates:   s.MonitorLinks,
					InvMeanSizes: invRun,
					Budget:       core.BudgetPerInterval(theta, Interval),
				}
				var err error
				if comp == nil {
					comp, err = plan.Compile(in)
				} else {
					err = comp.Retune(in)
				}
				if err != nil {
					return struct{}{}, err
				}
				sol, err := comp.Solver().Solve(opt)
				if err != nil {
					return struct{}{}, err
				}
				stats[run] = sol.Stats
			}
			return struct{}{}, nil
		})
	if err != nil {
		return nil, err
	}
	res := &ConvergenceResult{Runs: runs}
	var sumRem, sumRem2, sumIter float64
	for _, st := range stats {
		if st.Converged {
			res.Converged++
		}
		sumRem += float64(st.Removals)
		sumRem2 += float64(st.Removals) * float64(st.Removals)
		sumIter += float64(st.Iterations)
		if st.Iterations > res.MaxIterations {
			res.MaxIterations = st.Iterations
		}
	}
	n := float64(runs)
	res.PctConverged = 100 * float64(res.Converged) / n
	res.MeanRemovals = sumRem / n
	res.MeanIterations = sumIter / n
	if v := sumRem2/n - res.MeanRemovals*res.MeanRemovals; v > 0 {
		res.StdRemovals = math.Sqrt(v)
	}
	return res, nil
}

// AccessComparison reproduces the Section V-C argument: the access link
// carries every OD pair at a single sampling rate, so matching the
// optimum's per-pair accuracy requires sampling it at the LARGEST
// effective rate the optimum assigns to any pair — which the smallest
// OD pair drives (JANET-LU needs ≈1%). That costs substantially more
// capacity than θ (the paper computes 173,798 sampled packets per
// interval against θ = 100,000: ≈70% more).
type AccessComparison struct {
	Theta float64 // packets per interval (the optimum's budget)
	// DrivingPair is the OD pair whose optimal effective rate is the
	// largest (the smallest OD pair), and RequiredRho that rate — the
	// sampling rate the access link must run at.
	DrivingPair string
	RequiredRho float64
	// AccessTheta is the packets-per-interval capacity the access-link
	// strategy consumes at RequiredRho.
	AccessTheta float64
	// OverheadPct is 100·(AccessTheta−Theta)/Theta.
	OverheadPct float64
}

// AccessLinkComparison computes the capacity comparison at θ packets
// per interval (the paper evaluates θ = 100,000).
func AccessLinkComparison(s *geant.Scenario, theta float64) (*AccessComparison, error) {
	budget := core.BudgetPerInterval(theta, Interval)
	prob, err := plan.Build(plan.Input{
		Matrix:       s.Matrix,
		Loads:        s.Loads,
		Candidates:   s.MonitorLinks,
		InvMeanSizes: s.UtilityParams(Interval),
		Budget:       budget,
	})
	if err != nil {
		return nil, err
	}
	sol, err := core.Solve(prob, core.Options{})
	if err != nil {
		return nil, err
	}
	driving := 0
	for k := range sol.Rho {
		if sol.Rho[k] > sol.Rho[driving] {
			driving = k
		}
	}
	rho := sol.Rho[driving]
	accessRate := rho * s.Loads[s.AccessLink] // sampled pkt/s
	accessTheta := accessRate * Interval
	return &AccessComparison{
		Theta:       theta,
		DrivingPair: s.Pairs[driving].Name,
		RequiredRho: rho,
		AccessTheta: accessTheta,
		OverheadPct: 100 * (accessTheta - theta) / theta,
	}, nil
}

// Figure2ExtPoint extends a Figure 2 abscissa with the baseline series
// the paper discusses but does not plot: uniform network-wide sampling
// (the ISP practice of the introduction) and the two-phase
// placement-then-rates heuristic (the Suh et al.-style comparator of
// Section II).
type Figure2ExtPoint struct {
	Figure2Point
	Uniform sampling.Summary
	Greedy  sampling.Summary
}

// Figure2Extended runs the Figure 2 sweep with two extra baseline
// series on the engine's worker pool: the baseline assignments of each
// θ are built concurrently through baseline.CompareAll and the per-θ
// simulations are independent engine jobs, deterministically seeded per
// θ index.
func Figure2Extended(ctx context.Context, s *geant.Scenario, thetas []float64, trials int, seed uint64, workers int) ([]Figure2ExtPoint, error) {
	base, err := Figure2(ctx, s, thetas, trials, seed, workers)
	if err != nil {
		return nil, err
	}
	sizes := s.PairSizes(Interval)
	return engine.Map(ctx, engine.Options{Workers: workers, Seed: seed ^ 0x5eed}, len(thetas),
		func(ctx context.Context, i int, r *rng.Source) (Figure2ExtPoint, error) {
			theta := thetas[i]
			out := Figure2ExtPoint{Figure2Point: base[i]}
			budget := core.BudgetPerInterval(theta, Interval)
			assigns, err := baseline.CompareAll(ctx, 0,
				baseline.Standard(s.Matrix, s.Loads, s.MonitorLinks, s.Rates, budget))
			if err != nil {
				return out, fmt.Errorf("eval: θ=%v: %w", theta, err)
			}
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
			if out.Uniform, err = simulate(assigns[0].Rho); err != nil {
				return out, err
			}
			if out.Greedy, err = simulate(assigns[1].Rho); err != nil {
				return out, err
			}
			return out, nil
		})
}

// RenderFigure2Extended writes the four-series sweep (worst-pair
// accuracy, the series where strategies separate most).
func RenderFigure2Extended(w io.Writer, points []Figure2ExtPoint) error {
	if _, err := fmt.Fprintf(w, "Figure 2 (extended) — worst-pair accuracy vs θ\n\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "%10s %10s %10s %10s %10s\n", "theta", "optimal", "uk-only", "uniform", "greedy")
	fmt.Fprintln(w, strings.Repeat("-", 56))
	for _, p := range points {
		fmt.Fprintf(w, "%10.0f %10.4f %10.4f %10.4f %10.4f\n",
			p.Theta, p.Optimal.Worst, p.UKOnly.Worst, p.Uniform.Worst, p.Greedy.Worst)
	}
	return nil
}
