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
)

// DetectionStudy instantiates the framework for the measurement task the
// paper's conclusion names as ongoing work: anomaly detection. The
// operator wants to sample at least one packet of any anomalous event of
// a given footprint (packets per interval) on any of the JANET paths;
// the per-pair utility is the detection probability 1−(1−ρ)^size. The
// optimized plan is compared against uniform network-wide sampling at
// the same budget — the deployment the paper says ISPs use today.
type DetectionResult struct {
	Theta     float64
	EventSize int
	Solution  *core.Solution
	Pairs     []string
	// OptimalProb, MaxMinProb and UniformProb are per-pair detection
	// probabilities under the sum-objective optimum, the max-min variant
	// and uniform sampling. The sum objective may abandon paths that are
	// expensive to watch (probability 0); max-min lifts the worst path —
	// usually the right goal for security monitoring.
	OptimalProb, MaxMinProb, UniformProb []float64
	// Mean/Min aggregates over pairs.
	MeanOptimal, MeanMaxMin, MeanUniform float64
	MinOptimal, MinMaxMin, MinUniform    float64
}

// DetectionStudy solves the detection-utility placement at θ packets per
// interval for anomalies of the given footprint. The three competing
// placements (sum-objective optimum, exact max-min, uniform) are
// independent, so they run as concurrent engine jobs (workers = 0
// selects GOMAXPROCS).
func DetectionStudy(ctx context.Context, s *geant.Scenario, theta float64, eventSize int, workers int) (*DetectionResult, error) {
	budget := core.BudgetPerInterval(theta, Interval)
	util, err := core.NewDetection(eventSize)
	if err != nil {
		return nil, err
	}
	// Build with placeholder SRE utilities, then swap in the detection
	// utility (plan.Build parameterizes SRE only).
	inv := make([]float64, len(s.Pairs))
	for k := range inv {
		inv[k] = 0.001
	}
	prob, err := plan.Build(plan.Input{
		Matrix:       s.Matrix,
		Loads:        s.Loads,
		Candidates:   s.MonitorLinks,
		InvMeanSizes: inv,
		Budget:       budget,
	})
	if err != nil {
		return nil, err
	}
	for k := range prob.Utilities {
		prob.Utilities[k] = util
	}
	// Compile once; the solver clones the problem, so the concurrent
	// max-min job below can keep reading prob untouched.
	solver, err := core.NewSolver(prob)
	if err != nil {
		return nil, err
	}
	var (
		sol, mm *core.Solution
		uni     *baseline.Assignment
	)
	err = engine.Run(ctx, engine.Options{Workers: workers},
		func(_ context.Context, _ *rng.Source) error {
			var err error
			sol, err = solver.Solve(core.Options{})
			return err
		},
		func(_ context.Context, _ *rng.Source) error {
			var err error
			mm, err = core.SolveMaxMinExact(prob, 0)
			return err
		},
		func(_ context.Context, _ *rng.Source) error {
			var err error
			uni, err = baseline.Uniform(s.Matrix, s.Loads, s.MonitorLinks, budget)
			return err
		},
	)
	if err != nil {
		return nil, err
	}
	res := &DetectionResult{
		Theta:      theta,
		EventSize:  eventSize,
		Solution:   sol,
		MinOptimal: math.Inf(1),
		MinMaxMin:  math.Inf(1),
		MinUniform: math.Inf(1),
	}
	for k := range s.Pairs {
		res.Pairs = append(res.Pairs, s.Pairs[k].Name)
		po := util.Value(sol.Rho[k])
		pm := util.Value(mm.Rho[k])
		pu := util.Value(uni.Rho[k])
		res.OptimalProb = append(res.OptimalProb, po)
		res.MaxMinProb = append(res.MaxMinProb, pm)
		res.UniformProb = append(res.UniformProb, pu)
		res.MeanOptimal += po
		res.MeanMaxMin += pm
		res.MeanUniform += pu
		res.MinOptimal = math.Min(res.MinOptimal, po)
		res.MinMaxMin = math.Min(res.MinMaxMin, pm)
		res.MinUniform = math.Min(res.MinUniform, pu)
	}
	n := float64(len(s.Pairs))
	res.MeanOptimal /= n
	res.MeanMaxMin /= n
	res.MeanUniform /= n
	return res, nil
}

// RenderDetection writes the study as a table.
func RenderDetection(w io.Writer, r *DetectionResult) error {
	if _, err := fmt.Fprintf(w,
		"Anomaly-detection placement (events of %d packets, θ = %.0f pkts/interval)\n\n",
		r.EventSize, r.Theta); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "OD pair", "sum-optimal", "max-min", "uniform")
	fmt.Fprintln(w, strings.Repeat("-", 52))
	for k, name := range r.Pairs {
		fmt.Fprintf(w, "%-12s %12.4f %12.4f %12.4f\n", name, r.OptimalProb[k], r.MaxMinProb[k], r.UniformProb[k])
	}
	fmt.Fprintf(w, "\nmean detection probability: sum %.4f, max-min %.4f, uniform %.4f\n",
		r.MeanOptimal, r.MeanMaxMin, r.MeanUniform)
	fmt.Fprintf(w, "worst path:                 sum %.4f, max-min %.4f, uniform %.4f\n",
		r.MinOptimal, r.MinMaxMin, r.MinUniform)
	fmt.Fprintln(w, "\nThe sum objective may abandon expensive paths entirely; for")
	fmt.Fprintln(w, "security tasks the max-min variant is usually the right choice.")
	return nil
}
