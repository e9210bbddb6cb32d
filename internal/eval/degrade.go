package eval

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netsamp/internal/control"
	"netsamp/internal/core"
	"netsamp/internal/engine"
	"netsamp/internal/faults"
	"netsamp/internal/geant"
	"netsamp/internal/plan"
	"netsamp/internal/rng"
	"netsamp/internal/topology"
)

// DegradationStudy measures what the paper's per-interval
// re-optimization loop is worth when the monitoring plant itself fails.
// Over a grid of (monitor-failure rate, export-loss rate) points it
// simulates the same fault history against two operators:
//
//   - naive: solves once on the full candidate set and keeps the plan;
//     a crashed monitor silently stops sampling, and estimates are
//     renormalized by the PLANNED effective rate with no loss
//     compensation — the operator is blind to its own degradation;
//   - graceful: control.Controller.StepResilient fed by fast failure
//     detection — the collector's per-exporter FlowSequence counters
//     reveal a silent exporter within the interval, so the controller
//     excludes monitors down in the current interval (re-entry is
//     hysteresis-gated), solver overruns fall back to the last good plan
//     rescaled into budget, and estimates are renormalized by the
//     achieved effective rate and the collector's measured record loss.
//
// Every fault draw and sampling experiment is split-seeded, so the study
// is bit-identical at any worker count.

// DegradeConfig parameterizes the study; DefaultDegradeConfig holds the
// defaults noted on each field.
type DegradeConfig struct {
	// FailRates are the per-interval monitor crash probabilities to
	// sweep (default 0, 0.1, 0.2).
	FailRates []float64
	// LossRates are the exporter→collector record loss fractions to
	// sweep (default 0, 0.05, 0.2).
	LossRates []float64
	// Intervals is the simulated horizon per grid point (default 8).
	Intervals int
	// Theta is the budget θ in packets per Interval (default 100000).
	Theta float64
	// OverrunRate is the per-interval probability in [0, 1] that the
	// re-optimization solve fails or overruns, exercising the fallback
	// path (default 0.2; 0 disables overruns; applies to the graceful
	// operator only — the naive one never re-solves).
	OverrunRate float64
	// Seed drives the fault plans and sampling experiments.
	Seed uint64
	// Workers bounds the engine pool (0 = GOMAXPROCS); results are
	// identical for every value.
	Workers int
}

// DefaultDegradeConfig returns the study's defaults.
func DefaultDegradeConfig() DegradeConfig {
	return DegradeConfig{
		FailRates:   []float64{0, 0.1, 0.2},
		LossRates:   []float64{0, 0.05, 0.2},
		Intervals:   8,
		Theta:       defaultTheta,
		OverrunRate: 0.2,
	}
}

// validate checks the parameters the CLI exposes.
func (c DegradeConfig) validate() error {
	switch {
	case c.Intervals < 1:
		return &ParamError{Flag: "intervals", Value: float64(c.Intervals), Want: "must be >= 1"}
	case c.OverrunRate < 0 || c.OverrunRate > 1:
		return &ParamError{Flag: "overrun", Value: c.OverrunRate, Want: "must be in [0, 1]"}
	}
	return nil
}

// DegradePoint is one grid point of the study. Utilities are the mean
// per-pair SRE utility of the rates ACHIEVED on the wire (deployed plan
// restricted to monitors actually alive); squared errors are mean
// squared relative estimation errors of the simulated X/ρ̂ estimates.
type DegradePoint struct {
	FailRate float64
	LossRate float64

	NaiveUtility    float64
	GracefulUtility float64
	NaiveSqErr      float64
	GracefulSqErr   float64

	// Fallbacks counts graceful intervals served from the last good
	// plan; Degraded counts intervals the graceful controller flagged.
	Fallbacks int
	// BudgetViolations counts graceful deployed plans with
	// Σ p_i·U_i > θ. The controller's contract keeps this at zero.
	BudgetViolations int
	// NaiveUnmeasured counts pair-intervals the naive operator left
	// with zero achieved sampling rate (its estimate degenerates to 0).
	NaiveUnmeasured int
}

// DegradeResult aggregates the study grid.
type DegradeResult struct {
	Points    []DegradePoint
	Intervals int
	Theta     float64
}

// DegradationStudy runs the study; see DegradeConfig for the knobs.
func DegradationStudy(ctx context.Context, s *geant.Scenario, cfg DegradeConfig) (*DegradeResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	budget := core.BudgetPerInterval(cfg.Theta, Interval)
	inv := s.UtilityParams(Interval)

	// The naive operator's one-shot plan is fault-independent: solve it
	// once and share it (read-only) across every grid point.
	prob, err := plan.Build(plan.Input{
		Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks,
		InvMeanSizes: inv, Budget: budget,
	})
	if err != nil {
		return nil, fmt.Errorf("eval: degrade: %w", err)
	}
	sol, err := core.Solve(prob, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("eval: degrade: %w", err)
	}
	naivePlan := plan.RatesByLink(sol, s.MonitorLinks)
	naiveBelieved := plan.EffectiveRates(s.Matrix, naivePlan, nil)

	type gridPoint struct{ fail, loss float64 }
	var grid []gridPoint
	for _, f := range cfg.FailRates {
		for _, l := range cfg.LossRates {
			grid = append(grid, gridPoint{f, l})
		}
	}

	points, err := engine.Map(ctx, engine.Options{Workers: cfg.Workers, Seed: cfg.Seed}, len(grid),
		func(_ context.Context, job int, r *rng.Source) (DegradePoint, error) {
			gp := grid[job]
			fp, err := faults.NewPlan(faults.Config{
				Seed:          rng.SplitSeed(cfg.Seed, uint64(1000+job)),
				MonitorCrash:  gp.fail,
				MeanOutage:    2,
				SolverOverrun: cfg.OverrunRate,
			})
			if err != nil {
				return DegradePoint{}, err
			}
			return simulateDegradePoint(s, fp, r, degradeInputs{
				budget: budget, inv: inv, intervals: cfg.Intervals,
				lossRate: gp.loss, naivePlan: naivePlan, naiveBelieved: naiveBelieved,
			})
		})
	if err != nil {
		return nil, err
	}
	return &DegradeResult{Points: points, Intervals: cfg.Intervals, Theta: cfg.Theta}, nil
}

type degradeInputs struct {
	budget        float64
	inv           []float64
	intervals     int
	lossRate      float64
	naivePlan     map[topology.LinkID]float64
	naiveBelieved []float64
}

// simulateDegradePoint plays one fault history against both operators.
// All randomness is drawn sequentially from the job's private source, so
// the point is deterministic regardless of scheduling.
func simulateDegradePoint(s *geant.Scenario, fp *faults.Plan, r *rng.Source, in degradeInputs) (DegradePoint, error) {
	cfg := fp.Config()
	pt := DegradePoint{FailRate: cfg.MonitorCrash, LossRate: in.lossRate}
	// ReviveAfter 0: the fault model has no flapping (outages are
	// geometric, detection is exact), so holding a recovered monitor in
	// probation would only forfeit coverage.
	ctl, err := control.New(control.Options{Budget: in.budget})
	if err != nil {
		return pt, err
	}
	nPairs := len(s.Pairs)
	var utilN, utilG, sqN, sqG float64
	samples := 0

	for t := 0; t < in.intervals; t++ {
		deadNow := make(map[topology.LinkID]bool)
		for _, lid := range fp.DownSet(t, s.MonitorLinks) {
			deadNow[lid] = true
		}

		// Graceful: re-optimize with the current interval's failure set.
		// Export silence shows up in the collector's per-exporter counters
		// within seconds, so the controller learns about a dead monitor in
		// the same interval and patches the deployment accordingly.
		si := control.StepInput{
			Matrix: s.Matrix, Loads: s.Loads, Candidates: s.MonitorLinks,
			InvSizes: in.inv, Workers: 1,
			Down: fp.DownSet(t, s.MonitorLinks),
		}
		if t > 0 {
			si.FailSolve = fp.SolverOverrun(t)
		}
		d, err := ctl.StepResilient(context.Background(), si)
		if err != nil {
			return pt, fmt.Errorf("eval: degrade interval %d: %w", t, err)
		}
		if d.Degraded {
			pt.Fallbacks++
		}
		if plan.SampledRate(d.Plan, s.Loads) > in.budget*(1+1e-9) {
			pt.BudgetViolations++
		}

		// What actually runs on the wire: each deployed plan restricted
		// to monitors alive THIS interval.
		restrict := func(p map[topology.LinkID]float64) map[topology.LinkID]float64 {
			out := make(map[topology.LinkID]float64, len(p))
			for lid, rate := range p {
				if !deadNow[lid] {
					out[lid] = rate
				}
			}
			return out
		}
		naiveAchieved := plan.EffectiveRates(s.Matrix, restrict(in.naivePlan), nil)
		gracefulAchieved := plan.EffectiveRates(s.Matrix, restrict(d.Plan), nil)
		// The graceful operator renormalizes by what it believes it
		// deployed; with in-interval detection the plan already excludes
		// the dead monitors, so belief tracks the wire.
		gracefulBelieved := plan.EffectiveRates(s.Matrix, d.Plan, nil)

		// Sampling experiment: binomial thinning at the achieved rate,
		// then record loss on the export path. The graceful estimator
		// compensates with the collector's measured loss fraction; the
		// naive one is blind to both.
		type draw struct{ sampled, delivered int64 }
		drawsN := make([]draw, nPairs)
		drawsG := make([]draw, nPairs)
		var sampledG, deliveredG int64
		for k := 0; k < nPairs; k++ {
			size := int64(s.Rates[k] * Interval)
			xn := r.Binomial(size, naiveAchieved[k])
			drawsN[k] = draw{xn, r.Binomial(xn, 1-in.lossRate)}
			xg := r.Binomial(size, gracefulAchieved[k])
			dg := r.Binomial(xg, 1-in.lossRate)
			drawsG[k] = draw{xg, dg}
			sampledG += xg
			deliveredG += dg
		}
		measuredLoss := 0.0
		if sampledG > 0 {
			measuredLoss = float64(sampledG-deliveredG) / float64(sampledG)
		}

		for k := 0; k < nPairs; k++ {
			size := s.Rates[k] * Interval
			u := core.MustSRE(in.inv[k])
			utilN += u.Value(naiveAchieved[k])
			utilG += u.Value(gracefulAchieved[k])

			estN := 0.0
			if in.naiveBelieved[k] > 0 {
				estN = float64(drawsN[k].delivered) / in.naiveBelieved[k]
			}
			//netsamp:floateq-ok an unmeasured pair has an exactly-zero achieved rate, not a rounded one
			if naiveAchieved[k] == 0 {
				pt.NaiveUnmeasured++
			}
			rhoHat := gracefulBelieved[k] * (1 - measuredLoss)
			estG := 0.0
			if rhoHat > 0 {
				estG = float64(drawsG[k].delivered) / rhoHat
			}
			relN := (estN - size) / size
			relG := (estG - size) / size
			sqN += relN * relN
			sqG += relG * relG
			samples++
		}
	}
	n := float64(samples)
	pt.NaiveUtility = utilN / n
	pt.GracefulUtility = utilG / n
	pt.NaiveSqErr = sqN / n
	pt.GracefulSqErr = sqG / n
	return pt, nil
}

// RenderDegrade writes the study as a text table.
func RenderDegrade(w io.Writer, r *DegradeResult) error {
	if _, err := fmt.Fprintf(w, "Degradation study: naive vs graceful operation (%d intervals of %.0f s, θ = %.0f)\n\n",
		r.Intervals, Interval, r.Theta); err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %6s | %10s %10s | %12s %12s | %5s %5s %5s\n",
		"fail", "loss", "util naive", "util grace", "sqerr naive", "sqerr grace", "fback", "bviol", "unmea")
	fmt.Fprintln(w, strings.Repeat("-", 96))
	for _, p := range r.Points {
		fmt.Fprintf(w, "%6.2f %6.2f | %10.4f %10.4f | %12.6f %12.6f | %5d %5d %5d\n",
			p.FailRate, p.LossRate, p.NaiveUtility, p.GracefulUtility,
			p.NaiveSqErr, p.GracefulSqErr, p.Fallbacks, p.BudgetViolations, p.NaiveUnmeasured)
	}
	fmt.Fprintln(w, "\nutil: mean per-pair SRE utility of the rates achieved on the wire")
	fmt.Fprintln(w, "sqerr: mean squared relative error of the X/ρ̂ size estimates")
	fmt.Fprintln(w, "fback: intervals served from the last known-good plan; bviol: budget violations (must be 0)")
	return nil
}

// DegradeCSV flattens the study for WriteCSV.
func DegradeCSV(r *DegradeResult) (header []string, rows [][]string) {
	header = []string{"fail_rate", "loss_rate",
		"naive_utility", "graceful_utility", "naive_sqerr", "graceful_sqerr",
		"fallbacks", "budget_violations", "naive_unmeasured"}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
	for _, p := range r.Points {
		rows = append(rows, []string{
			f(p.FailRate), f(p.LossRate),
			f(p.NaiveUtility), f(p.GracefulUtility), f(p.NaiveSqErr), f(p.GracefulSqErr),
			strconv.Itoa(p.Fallbacks), strconv.Itoa(p.BudgetViolations), strconv.Itoa(p.NaiveUnmeasured),
		})
	}
	return header, rows
}
