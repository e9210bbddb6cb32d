package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"netsamp/internal/control"
	"netsamp/internal/core"
	"netsamp/internal/engine"
	"netsamp/internal/faults"
	"netsamp/internal/geant"
	"netsamp/internal/netflow"
	"netsamp/internal/plan"
	"netsamp/internal/rng"
	"netsamp/internal/topology"
)

// RegretStudy quantifies what uncertainty-aware control is worth when
// the loads the optimizer runs on are themselves estimates. The paper
// assumes the per-link loads U_i are known; in production they come from
// the monitors' own sampled observations, drift between intervals, and
// freeze the moment a monitor crashes. Over a grid of monitor-failure
// rates — each point sharing one drifting true-load history — the study
// plays three operators:
//
//   - oracle: re-optimizes every interval on the TRUE loads (the paper's
//     idealized loop; the regret baseline);
//   - plug-in: EWMA-smooths the sampled load estimates and solves as if
//     they were exact. A crashed monitor's estimate silently freezes,
//     and a plan solved on stale loads overspends θ when the true loads
//     have drifted up;
//   - robust: the same observation stream through the confidence
//     tracker (loadtrack) — each observation's error carries both the
//     estimator's sampling noise (netflow.LinkLoadObservation) and the
//     process noise of the drift itself, unobserved links widen
//     multiplicatively — solved pessimistically against the upper
//     envelope with an exploration reserve on the widest intervals.
//
// Overspending θ is not free: the budget is the monitoring plant's
// processing capacity, and records beyond it are dropped before export
// without accounting (a router never generates the record, so no
// sequence gap betrays the loss). The surviving effective rates are the
// planned ones scaled by q = θ/spend, and — because the operator still
// renormalizes by its PLANNED rates — every estimate that interval is
// biased low by (1−q). In the SRE utility's own units (accuracy =
// 1 − squared relative error) a saturated interval therefore scores
// Value(q·ρ) − (1−q)² per pair: variance at the achieved rate plus the
// squared bias of the blind renormalization. The pessimistic operator
// buys freedom from that bias with a mildly conservative spend.
//
// The reported metric is cumulative utility regret against the oracle:
// Σ_t (U_oracle(t) − U_op(t)) over the achieved (alive, saturated)
// rates. Every draw is split-seeded, so a point is bit-identical at any
// worker count and across a mid-run kill/restore of the robust
// controller.

// RegretConfig parameterizes the study; DefaultRegretConfig holds the
// defaults noted on each field.
type RegretConfig struct {
	// FailRates are the per-interval monitor crash probabilities to
	// sweep (default 0, 0.1, 0.2).
	FailRates []float64
	// Intervals is the simulated horizon per grid point (default 24).
	Intervals int
	// Theta is the budget θ in packets per Interval (default 100000).
	Theta float64
	// DriftVol is the true-load random-walk volatility per interval,
	// >= 0 (default 0.3; 0 disables).
	DriftVol float64
	// DriftStep is the per-interval probability in [0, 1] of a step
	// change in a link's true load (default 0.1; 0 disables).
	DriftStep float64
	// SmoothAlpha is the EWMA coefficient of the plug-in and robust
	// operators (default 0.3). The oracle never smooths.
	SmoothAlpha float64
	// ExplorationFrac is the robust operator's exploration reserve, a
	// fraction of θ in [0, 0.5] (default 0.1; 0 disables).
	ExplorationFrac float64
	// WidenFactor is the robust tracker's per-unobserved-interval
	// widening, >= 1 (default 1.3).
	WidenFactor float64
	// KillAt, when > 0, kills the robust controller before stepping that
	// interval and restores it from its serialized snapshot — the study
	// result must be bit-identical to an uninterrupted run.
	KillAt int
	// Seed drives the fault plans, drift and sampling experiments.
	Seed uint64
	// Workers bounds the engine pool (0 = GOMAXPROCS); results are
	// identical for every value.
	Workers int
}

// DefaultRegretConfig returns the study's defaults.
func DefaultRegretConfig() RegretConfig {
	return RegretConfig{
		FailRates:       []float64{0, 0.1, 0.2},
		Intervals:       24,
		Theta:           defaultTheta,
		DriftVol:        0.3,
		DriftStep:       0.1,
		SmoothAlpha:     0.3,
		ExplorationFrac: 0.1,
		WidenFactor:     1.3,
	}
}

// validate checks the parameters the CLI exposes, in flag order.
func (c RegretConfig) validate() error {
	switch {
	case c.Intervals < 1:
		return &ParamError{Flag: "intervals", Value: float64(c.Intervals), Want: "must be >= 1"}
	case c.DriftVol < 0:
		return &ParamError{Flag: "drift", Value: c.DriftVol, Want: "must be >= 0"}
	case c.DriftStep < 0 || c.DriftStep > 1:
		return &ParamError{Flag: "step", Value: c.DriftStep, Want: "must be in [0, 1]"}
	case c.ExplorationFrac < 0 || c.ExplorationFrac > 0.5:
		return &ParamError{Flag: "explore", Value: c.ExplorationFrac, Want: "must be in [0, 0.5]"}
	case c.WidenFactor < 1:
		return &ParamError{Flag: "widen", Value: c.WidenFactor, Want: "must be >= 1"}
	}
	return nil
}

// RegretPoint is one grid point: cumulative utilities over the horizon
// and the resulting regrets against the oracle.
type RegretPoint struct {
	FailRate float64

	OracleUtility float64
	PluginUtility float64
	RobustUtility float64
	// PluginRegret and RobustRegret are OracleUtility minus the
	// operator's utility (non-negative up to solver tolerance).
	PluginRegret float64
	RobustRegret float64

	// PluginOverspends and RobustOverspends count intervals whose
	// deployed plan exceeded θ against the TRUE loads and was clipped.
	PluginOverspends int
	RobustOverspends int
	// Explored is the total number of exploration grants the robust
	// operator issued over the horizon.
	Explored int
}

// RegretResult aggregates the study grid.
type RegretResult struct {
	Points    []RegretPoint
	Intervals int
	Theta     float64
}

// RegretStudy runs the study; see RegretConfig for the knobs.
func RegretStudy(ctx context.Context, s *geant.Scenario, cfg RegretConfig) (*RegretResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	budget := core.BudgetPerInterval(cfg.Theta, Interval)
	inv := s.UtilityParams(Interval)

	points, err := engine.Map(ctx, engine.Options{Workers: cfg.Workers, Seed: cfg.Seed}, len(cfg.FailRates),
		func(_ context.Context, job int, r *rng.Source) (RegretPoint, error) {
			fp, err := faults.NewPlan(faults.Config{
				Seed:         rng.SplitSeed(cfg.Seed, uint64(1000+job)),
				MonitorCrash: cfg.FailRates[job],
				MeanOutage:   2,
				DriftVol:     cfg.DriftVol,
				DriftStep:    cfg.DriftStep,
			})
			if err != nil {
				return RegretPoint{}, err
			}
			return simulateRegretPoint(s, fp, r, regretInputs{
				budget: budget, inv: inv, cfg: cfg,
			})
		})
	if err != nil {
		return nil, err
	}
	return &RegretResult{Points: points, Intervals: cfg.Intervals, Theta: cfg.Theta}, nil
}

type regretInputs struct {
	budget float64
	inv    []float64
	cfg    RegretConfig
}

// regretOperator is one simulated operator's per-interval loop state.
type regretOperator struct {
	ctl *control.Controller
	// obs holds the operator's frozen last load observation per link
	// (what it feeds the controller when a link reports nothing new).
	obs []float64
	// wire is the previous interval's achieved per-link rate — the plan
	// that actually ran, restricted to alive monitors and clipped into
	// budget; it determines what the operator observes this interval.
	wire map[topology.LinkID]float64
}

// simulateRegretPoint plays one drifting fault history against the
// oracle, plug-in and robust operators. All randomness is drawn
// sequentially from the job's private source, so the point is
// deterministic regardless of scheduling.
func simulateRegretPoint(s *geant.Scenario, fp *faults.Plan, r *rng.Source, in regretInputs) (RegretPoint, error) {
	pt := RegretPoint{FailRate: fp.Config().MonitorCrash}
	cfg := in.cfg
	newCtl := func(opts control.Options) (*control.Controller, error) {
		opts.Budget = in.budget
		return control.New(opts)
	}
	robustOpts := control.Options{
		SmoothAlpha: cfg.SmoothAlpha,
		Robust: control.RobustOptions{
			Mode:            core.RobustPessimistic,
			ExplorationFrac: cfg.ExplorationFrac,
			WidenFactor:     cfg.WidenFactor,
		},
	}
	oracleCtl, err := newCtl(control.Options{})
	if err != nil {
		return pt, err
	}
	pluginCtl, err := newCtl(control.Options{SmoothAlpha: cfg.SmoothAlpha})
	if err != nil {
		return pt, err
	}
	robustCtl, err := newCtl(robustOpts)
	if err != nil {
		return pt, err
	}
	nLinks := len(s.Loads)
	oracle := &regretOperator{ctl: oracleCtl}
	plugin := &regretOperator{ctl: pluginCtl, obs: make([]float64, nLinks)}
	robust := &regretOperator{ctl: robustCtl, obs: make([]float64, nLinks)}

	trueLoadsAt := func(t int) []float64 {
		loads := make([]float64, nLinks)
		for i := range loads {
			loads[i] = s.Loads[i] * fp.LoadDrift(t, topology.LinkID(i))
		}
		return loads
	}
	prevTrue := trueLoadsAt(0)
	copy(plugin.obs, prevTrue)
	copy(robust.obs, prevTrue)

	// clipAndScore restricts a deployed plan to alive monitors and scores
	// the interval. A plan whose true sampled rate exceeds θ saturates
	// the plant: the achieved rates are the planned ones scaled by
	// q = θ/spend, and every pair pays the (1−q)² squared bias of
	// renormalizing by the planned rates while only a q fraction of the
	// records survived (see the package comment).
	clipAndScore := func(p map[topology.LinkID]float64, dead map[topology.LinkID]bool, trueLoads []float64) (map[topology.LinkID]float64, float64, bool) {
		achieved := make(map[topology.LinkID]float64, len(p))
		for lid, rate := range p {
			if !dead[lid] {
				achieved[lid] = rate
			}
		}
		bias := 0.0
		clipped := false
		if spend := plan.SampledRate(achieved, trueLoads); spend > in.budget*(1+1e-9) {
			clipped = true
			q := in.budget / spend
			bias = 1 - q
			for lid := range achieved {
				achieved[lid] *= q
			}
		}
		eff := plan.EffectiveRates(s.Matrix, achieved, nil)
		util := 0.0
		for k := range eff {
			util += core.MustSRE(in.inv[k]).Value(eff[k]) - bias*bias
		}
		return achieved, util, clipped
	}

	for t := 0; t < cfg.Intervals; t++ {
		trueLoads := trueLoadsAt(t)
		down := fp.DownSet(t, s.MonitorLinks)
		deadNow := make(map[topology.LinkID]bool, len(down))
		for _, lid := range down {
			deadNow[lid] = true
		}
		var deadPrev map[topology.LinkID]bool
		if t > 0 {
			deadPrev = make(map[topology.LinkID]bool)
			for _, lid := range fp.DownSet(t-1, s.MonitorLinks) {
				deadPrev[lid] = true
			}
		}

		// Observation step: each sampling operator sees, per link, a
		// binomial experiment run at the rate its own plan achieved on
		// the wire last interval — plan-dependent observability is the
		// whole feedback loop under study. Draws are ordered (operator,
		// LinkID) so the stream is schedule-independent.
		observed := make(map[*regretOperator][]bool, 2)
		relErr := make(map[*regretOperator][]float64, 2)
		// The robust operator knows its observations are one interval
		// stale against a drifting quantity, so it folds the drift's
		// per-interval process noise into each observation's error — the
		// plug-in treats the same numbers as exact. This is the entire
		// difference between the two operators' inputs.
		procVar := cfg.DriftVol * cfg.DriftVol
		for _, op := range []*regretOperator{plugin, robust} {
			obsMask := make([]bool, nLinks)
			errs := make([]float64, nLinks)
			if t > 0 {
				for i := 0; i < nLinks; i++ {
					lid := topology.LinkID(i)
					rate := op.wire[lid]
					if !(rate > 0) || deadPrev[lid] {
						continue
					}
					x := r.Binomial(int64(prevTrue[i]*Interval), rate)
					est, re, _ := netflow.LinkLoadObservation(uint64(x), rate, 0, Interval)
					if x > 0 {
						op.obs[i] = est
						obsMask[i] = true
						errs[i] = math.Sqrt(re*re + procVar)
					}
				}
			}
			observed[op] = obsMask
			relErr[op] = errs
		}

		// Deterministic-recovery check: kill the robust controller and
		// resume from its serialized snapshot; the remaining horizon must
		// be bit-identical to an uninterrupted run.
		if cfg.KillAt > 0 && t == cfg.KillAt {
			blob, err := robust.ctl.Snapshot().MarshalBinary()
			if err != nil {
				return pt, fmt.Errorf("eval: regret kill at %d: %w", t, err)
			}
			var st control.State
			if err := st.UnmarshalBinary(blob); err != nil {
				return pt, fmt.Errorf("eval: regret restore at %d: %w", t, err)
			}
			fresh, err := newCtl(robustOpts)
			if err != nil {
				return pt, err
			}
			if err := fresh.Restore(st); err != nil {
				return pt, fmt.Errorf("eval: regret restore at %d: %w", t, err)
			}
			robust.ctl = fresh
		}

		step := func(op *regretOperator, loads []float64, mask []bool, errs []float64) (*control.Decision, error) {
			return op.ctl.StepResilient(context.Background(), control.StepInput{
				Matrix: s.Matrix, Loads: loads, Candidates: s.MonitorLinks,
				InvSizes: in.inv, Workers: 1, Down: down,
				Observed: mask, LoadRelErr: errs,
			})
		}
		dOracle, err := step(oracle, trueLoads, nil, nil)
		if err != nil {
			return pt, fmt.Errorf("eval: regret oracle interval %d: %w", t, err)
		}
		dPlugin, err := step(plugin, plugin.obs, nil, nil)
		if err != nil {
			return pt, fmt.Errorf("eval: regret plug-in interval %d: %w", t, err)
		}
		dRobust, err := step(robust, robust.obs, observed[robust], relErr[robust])
		if err != nil {
			return pt, fmt.Errorf("eval: regret robust interval %d: %w", t, err)
		}
		pt.Explored += len(dRobust.Explored)

		_, utilO, _ := clipAndScore(dOracle.Plan, deadNow, trueLoads)
		wireP, utilP, clippedP := clipAndScore(dPlugin.Plan, deadNow, trueLoads)
		wireR, utilR, clippedR := clipAndScore(dRobust.Plan, deadNow, trueLoads)
		if clippedP {
			pt.PluginOverspends++
		}
		if clippedR {
			pt.RobustOverspends++
		}
		pt.OracleUtility += utilO
		pt.PluginUtility += utilP
		pt.RobustUtility += utilR
		plugin.wire, robust.wire = wireP, wireR
		prevTrue = trueLoads
	}
	pt.PluginRegret = pt.OracleUtility - pt.PluginUtility
	pt.RobustRegret = pt.OracleUtility - pt.RobustUtility
	return pt, nil
}

// RenderRegret writes the study as a text table.
func RenderRegret(w io.Writer, r *RegretResult) error {
	if _, err := fmt.Fprintf(w, "Regret study: plug-in vs uncertainty-aware control under load drift (%d intervals of %.0f s, θ = %.0f)\n\n",
		r.Intervals, Interval, r.Theta); err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s | %12s | %12s %12s | %6s %6s | %8s\n",
		"fail", "util oracle", "regret plug", "regret rbst", "ovr pl", "ovr rb", "explored")
	fmt.Fprintln(w, strings.Repeat("-", 84))
	for _, p := range r.Points {
		fmt.Fprintf(w, "%6.2f | %12.2f | %12.2f %12.2f | %6d %6d | %8d\n",
			p.FailRate, p.OracleUtility, p.PluginRegret, p.RobustRegret,
			p.PluginOverspends, p.RobustOverspends, p.Explored)
	}
	fmt.Fprintln(w, "\nregret: cumulative utility the operator left on the table vs the true-load oracle")
	fmt.Fprintln(w, "ovr: intervals whose deployed plan overspent θ against the true loads and was clipped")
	return nil
}

// RegretCSV flattens the study for WriteCSV.
func RegretCSV(r *RegretResult) (header []string, rows [][]string) {
	header = []string{"fail_rate", "oracle_utility", "plugin_utility", "robust_utility",
		"plugin_regret", "robust_regret", "plugin_overspends", "robust_overspends", "explored"}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }
	for _, p := range r.Points {
		rows = append(rows, []string{
			f(p.FailRate), f(p.OracleUtility), f(p.PluginUtility), f(p.RobustUtility),
			f(p.PluginRegret), f(p.RobustRegret),
			strconv.Itoa(p.PluginOverspends), strconv.Itoa(p.RobustOverspends), strconv.Itoa(p.Explored),
		})
	}
	return header, rows
}
