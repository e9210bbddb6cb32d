// Package control turns the per-interval optimizer into an operational
// monitoring controller: the component an ISP would actually run against
// its NetFlow infrastructure.
//
// The paper establishes that plans must follow traffic and routing
// dynamics (Section I) and that router-embedded monitors make
// re-activation cheap — but reconfiguring hundreds of routers every five
// minutes is still operational churn. The controller therefore adds two
// practical mechanisms on top of core.Solve:
//
//   - load smoothing: link loads are EWMA-filtered across intervals, so
//     a single noisy interval does not swing the plan;
//   - activation hysteresis: the monitor SET only changes when the
//     re-optimized set beats the best plan achievable on the currently
//     active set by a configurable relative gain. Sampling rates on the
//     active set are re-tuned every interval either way (a pure
//     configuration change, no activation churn).
package control

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"netsamp/internal/core"
	"netsamp/internal/engine"
	"netsamp/internal/loadtrack"
	"netsamp/internal/plan"
	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// Options tunes the controller.
type Options struct {
	// Budget is θ as a sampled packet rate (core.BudgetPerInterval).
	Budget float64
	// SmoothAlpha is the EWMA weight of the newest load sample in
	// (0, 1]; 1 (the default when 0) disables smoothing.
	SmoothAlpha float64
	// SwitchGain is the minimum relative objective improvement required
	// to change the active monitor set (e.g. 0.01 = 1%). 0 disables
	// hysteresis: every interval adopts the unconstrained optimum.
	SwitchGain float64
	// ReviveAfter is the re-activation hysteresis: a monitor reported
	// down must then be observed healthy for this many consecutive
	// intervals before it rejoins the candidate set. 0 readmits a
	// recovered monitor immediately; flapping monitors warrant 1–2.
	ReviveAfter int
	// SolveTimeout bounds each interval's solver wall-clock time (zero
	// disables). A solve that overruns fails that interval's
	// re-optimization and the controller falls back to its last good
	// plan instead of blocking the deployment loop.
	SolveTimeout time.Duration
	// Model selects the effective-rate model every interval optimizes
	// under (nil = core.ModelLinear). It is part of the controller's
	// identity: snapshots record it and Restore rejects state solved
	// under a different model, keeping warm starts bitwise-deterministic.
	Model core.RateModel
	// Robust enables uncertainty-aware operation: a loadtrack.Tracker
	// maintains per-link confidence intervals from the observation
	// stream, solves run against the envelope edge Robust.Mode selects,
	// and Robust.ExplorationFrac of θ is spent re-observing the most
	// uncertain links. The zero value (RobustOff) preserves the plain
	// EWMA controller bit-for-bit.
	Robust RobustOptions
	// Approx enables the deadline-aware approximation policy: when the
	// exact solve is predicted to overrun SolveTimeout, the interval is
	// served by core.SolveApprox (Frank-Wolfe with a duality-gap
	// certificate) instead of degrading to the stale fallback plan. The
	// zero value disables the policy.
	Approx ApproxPolicy
	// Solve carries the inner solver options.
	Solve core.Options
}

// RobustOptions tunes the uncertainty-aware control loop.
type RobustOptions struct {
	// Mode selects the envelope edge each interval's solves optimize
	// against (core.RobustOff disables the tracker entirely).
	Mode core.RobustMode
	// ExplorationFrac reserves this fraction of θ (in [0, 0.5]) and
	// spreads it across the most-uncertain eligible links each interval,
	// so a link the exploitation plan turns off keeps producing
	// observations instead of drifting unseen. 0 disables exploration.
	ExplorationFrac float64
	// WidenFactor is the tracker's per-unobserved-interval multiplicative
	// confidence widening (default 1.25; must be >= 1, see
	// loadtrack.Config.WidenFactor).
	WidenFactor float64
}

// ApproxPolicy tunes the deadline-aware approximation fallback. The
// policy must be deterministic — the controller is replayable from its
// inputs, so it never consults the wall clock. Instead it predicts the
// exact solver's cost from problem size with a calibrated throughput
// model:
//
//	predicted seconds = NNZ · approxExactIters / ExactRate
//
// and routes the interval to core.SolveApprox whenever the prediction
// exceeds SolveTimeout. The same instance therefore makes the same
// choice on every machine; ExactRate is the single knob that anchors
// the model to real hardware (see `netsamp scale`).
type ApproxPolicy struct {
	// Enabled turns the policy on. Requires an additive rate model:
	// SolveApprox's gap certificate needs a concave objective, and New
	// rejects the combination up front rather than failing intervals.
	Enabled bool
	// ExactRate is the calibrated exact-solver throughput in
	// NNZ·iterations per second; 0 selects 2.8e6. Since the Newton step
	// pins every link its CG path meets on the box, an exact solve takes
	// few but heavy iterations: `netsamp scale` on one 2-vCPU Xeon
	// measures 2.83e6 at 1k links × 3 pairs/link (23k nnz, 22 iterations
	// in 182 ms, median of five runs) and 2.91e6 at 2k links × 3
	// pairs/link (43k nnz, 33 iterations in 487 ms); the default is the
	// lower rate, rounded down. With approxExactIters = 600 the
	// prediction still over-charges those solves 18–27×, so the policy
	// errs toward SolveApprox, whose answer carries a gap certificate.
	ExactRate float64
}

// approxExactIters is the iteration count the cost model charges the
// exact solver: the observed order of magnitude for converged active-set
// runs on generated ISP-like instances. Only its ratio to ExactRate
// enters the prediction, so ExactRate is the one calibration.
const approxExactIters = 600

func (ap ApproxPolicy) exactRate() float64 {
	//netsamp:floateq-ok zero is the unset sentinel, never a computed value
	if ap.ExactRate == 0 {
		return 2.8e6
	}
	return ap.ExactRate
}

// Overruns is the policy's cost model as a standalone predicate: true
// when an exact solve over nnz compiled incidence entries is predicted
// to exceed timeout. Exported so offline tooling (`netsamp scale`)
// routes instances exactly the way a live controller would.
func (ap ApproxPolicy) Overruns(nnz int, timeout time.Duration) bool {
	if timeout <= 0 {
		return false
	}
	return float64(nnz)*approxExactIters/ap.exactRate() > timeout.Seconds()
}

// Decision is the controller's output for one interval.
type Decision struct {
	// Plan is the sampling-rate assignment to deploy.
	Plan map[topology.LinkID]float64
	// Solution is the solver output behind Plan.
	Solution *core.Solution
	// SetChanged reports whether the active monitor set differs from the
	// previous interval's.
	SetChanged bool
	// Gain is the relative objective improvement of the unconstrained
	// optimum over the best retained-set plan (0 when the set was free
	// to begin with).
	Gain float64
	// Degraded reports that this interval's re-optimization failed and
	// Plan is the last known-good plan, restricted to surviving monitors
	// and rescaled to respect the budget. Solution is nil in that case.
	Degraded bool
	// Excluded lists candidate links withheld from this interval's
	// optimization: monitors reported down, plus recovered monitors
	// still serving their ReviveAfter probation.
	Excluded []topology.LinkID
	// Uncovered counts OD pairs that traverse no eligible link this
	// interval — unmeasurable until a monitor on their path revives. The
	// optimization proceeds for the remaining pairs (Solution indexes the
	// covered pairs only).
	Uncovered int
	// Explored lists links granted a slice of the exploration reserve
	// this interval (ascending LinkID; robust mode with a non-zero
	// ExplorationFrac only). Their Plan rates include the grant.
	Explored []topology.LinkID
	// Approximated reports that the deadline policy routed this
	// interval's deployed solve to core.SolveApprox because the exact
	// path was predicted to overrun SolveTimeout.
	Approximated bool
	// ApproxGap is the Frank-Wolfe duality-gap certificate of the
	// deployed solution when Approximated is set: the exact optimum is
	// provably within ApproxGap of Solution.Objective.
	ApproxGap float64
}

// Controller holds the cross-interval state. The zero value is not
// usable; construct with New.
type Controller struct {
	opts      Options
	active    []topology.LinkID // current monitor set (sorted)
	ewmaLoads []float64
	steps     int
	fallbacks int
	// lastGood is each monitor's most recent successfully solved rate —
	// merged across intervals, not just the latest (sparse) plan, so a
	// fallback can re-enable any surviving monitor at its last
	// configuration even if the previous interval's optimum skipped it.
	lastGood  map[topology.LinkID]float64
	probation map[topology.LinkID]int // healthy intervals still owed before readmission
	// cache holds the compiled (problem, solver) pairs across intervals:
	// as long as routing and the monitor sets are stable, each interval's
	// solves re-tune a compiled workspace instead of rebuilding it.
	cache *plan.Cache
	// eligCover and retCover remember the coverage-filtered matrices of
	// the last step's eligible and retained sets, so the cache above
	// keeps hitting while an outage leaves a pair uncovered.
	eligCover, retCover coverage
	// tracker maintains the per-link load confidence intervals in robust
	// mode (nil when Robust.Mode is off); trackMeans is its point-
	// estimate scratch, playing the role ewmaLoads plays in plain mode.
	tracker    *loadtrack.Tracker
	trackMeans []float64
}

// New returns a controller. Every Options field is validated here, and
// each rejection is a typed *core.InputError (errors.Is-matchable
// against core.ErrInvalidInput), so callers can distinguish permanent
// configuration faults from transient solve failures.
func New(opts Options) (*Controller, error) {
	if math.IsNaN(opts.Budget) || math.IsInf(opts.Budget, 0) || !(opts.Budget > 0) {
		return nil, &core.InputError{Field: "controller budget", Index: -1, Value: opts.Budget, Reason: "want a finite value > 0"}
	}
	if math.IsNaN(opts.SmoothAlpha) || opts.SmoothAlpha < 0 || opts.SmoothAlpha > 1 {
		return nil, &core.InputError{Field: "smooth alpha", Index: -1, Value: opts.SmoothAlpha, Reason: "want the EWMA coefficient in (0, 1] (0 = unset selects 1)"}
	}
	if math.IsNaN(opts.SwitchGain) || math.IsInf(opts.SwitchGain, 0) || opts.SwitchGain < 0 {
		return nil, &core.InputError{Field: "switch gain", Index: -1, Value: opts.SwitchGain, Reason: "want a finite value >= 0"}
	}
	if opts.ReviveAfter < 0 {
		return nil, &core.InputError{Field: "revive after", Index: -1, Value: float64(opts.ReviveAfter), Reason: "want >= 0 intervals"}
	}
	if opts.SolveTimeout < 0 {
		return nil, &core.InputError{Field: "solve timeout", Index: -1, Value: opts.SolveTimeout.Seconds(), Reason: "want a non-negative duration"}
	}
	if opts.Robust.Mode != core.RobustOff && opts.Robust.Mode != core.RobustPessimistic && opts.Robust.Mode != core.RobustOptimistic {
		return nil, &core.InputError{Field: "robust mode", Index: -1, Value: float64(opts.Robust.Mode), Reason: "want off, pessimistic or optimistic"}
	}
	if math.IsNaN(opts.Robust.ExplorationFrac) || opts.Robust.ExplorationFrac < 0 || opts.Robust.ExplorationFrac > 0.5 {
		return nil, &core.InputError{Field: "exploration fraction", Index: -1, Value: opts.Robust.ExplorationFrac, Reason: "want a fraction of θ in [0, 0.5]"}
	}
	ar := opts.Approx.ExactRate
	if math.IsNaN(ar) || math.IsInf(ar, 0) || ar < 0 {
		return nil, &core.InputError{Field: "approx exact rate", Index: -1, Value: ar, Reason: "want a finite throughput > 0 in nnz·iters/s (0 = unset selects 2.8e6)"}
	}
	if opts.Approx.Enabled && opts.Model != nil && !opts.Model.Additive() {
		return nil, &core.InputError{Field: "approx policy", Index: -1, Reason: "rate model " + opts.Model.Name() + " is not additive: SolveApprox's gap certificate needs a concave objective"}
	}
	wf := opts.Robust.WidenFactor
	//netsamp:floateq-ok zero is the unset sentinel, never a computed value
	if math.IsNaN(wf) || math.IsInf(wf, 0) || (wf != 0 && wf < 1) {
		return nil, &core.InputError{Field: "widen factor", Index: -1, Value: wf, Reason: "want a finite value >= 1 (0 = unset selects 1.25)"}
	}
	//netsamp:floateq-ok zero is the unset sentinel, never a computed value
	if opts.SmoothAlpha == 0 {
		opts.SmoothAlpha = 1
	}
	//netsamp:floateq-ok zero is the unset sentinel, never a computed value
	if opts.Robust.WidenFactor == 0 {
		opts.Robust.WidenFactor = 1.25
	}
	return &Controller{opts: opts, probation: make(map[topology.LinkID]int), cache: plan.NewCache()}, nil
}

// Steps returns how many intervals the controller has processed.
func (c *Controller) Steps() int { return c.steps }

// Fallbacks returns how many intervals were served from the last
// known-good plan because re-optimization failed.
func (c *Controller) Fallbacks() int { return c.fallbacks }

// ErrNoFallback wraps a failed re-optimization that could not be
// absorbed: no previous plan exists, or no surviving monitor carries it.
var ErrNoFallback = errors.New("control: re-optimization failed with no usable fallback plan")

// errInjectedSolve is the sentinel StepInput.FailSolve injects.
var errInjectedSolve = errors.New("control: injected solver failure")

// StepInput gathers one interval's observations for StepResilient.
type StepInput struct {
	// Matrix, Loads, Candidates and InvSizes are the interval's routing
	// matrix, raw per-link packet rates (indexed by LinkID), monitorable
	// link set and per-pair E[1/S_k].
	Matrix     *routing.Matrix
	Loads      []float64
	Candidates []topology.LinkID
	InvSizes   []float64
	// Workers bounds the interval's concurrent solves (0 = GOMAXPROCS).
	Workers int
	// Down lists monitors observed failed this interval (crashed,
	// unreachable, or silent). They are excluded from the optimization
	// and re-enter only after ReviveAfter healthy intervals.
	Down []topology.LinkID
	// Observed marks which Loads entries are fresh observations this
	// interval (indexed like Loads; nil = all fresh). Robust mode only:
	// an unobserved link keeps its tracked estimate frozen and widens
	// its confidence interval. Down and probation links are forced
	// unobserved regardless — a crashed monitor reports nothing.
	Observed []bool
	// LoadRelErr is the relative standard error of each Loads entry
	// (indexed like Loads; nil = exact). Robust mode only: the netflow
	// estimator's delta-method error — inflated under transport loss,
	// +Inf for a no-information interval — feeds the tracker, so a lossy
	// or starved observation widens the link's interval instead of being
	// trusted outright (see netflow.LinkLoadObservation).
	LoadRelErr []float64
	// TransportLoss is the ingest tier's record-loss fraction ℓ in
	// [0, 1) for this interval — wire losses plus collector drops over
	// everything the exporters emitted (ingest.Collector.LossFraction).
	// In robust mode every observed load's relative error is inflated
	// in quadrature, relErr' = sqrt(relErr² + ℓ²/(1−ℓ)), so an interval
	// observed through a lossy ingest tier widens the tracker's
	// confidence intervals instead of being trusted at face value —
	// overload degrades confidence, it never silently biases the plan.
	// Plain (non-robust) mode carries no per-link uncertainty and
	// ignores the field.
	TransportLoss float64
	// FailSolve injects a solver failure (fault injection for tests and
	// degradation studies).
	FailSolve bool
	// Delay injects artificial solver latency ahead of the solve; with
	// SolveTimeout set it models an overrunning solver.
	Delay time.Duration
}

// StepResilient is the controller's one entry point: it ingests one
// interval's observations and returns the plan to deploy. The interval's
// two solves — the unconstrained optimum and the retained-set re-tune
// the hysteresis rule compares it against — are independent, so they run
// as concurrent engine jobs. Monitors listed in in.Down are excluded
// from the optimization (and re-enter only after ReviveAfter consecutive
// healthy intervals); a solver failure or SolveTimeout overrun degrades
// to the last known-good plan restricted to surviving monitors and
// rescaled so Σ p_i·U_i ≤ θ still holds against the controller's load
// estimate.
func (c *Controller) StepResilient(ctx context.Context, in StepInput) (*Decision, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("control: step aborted: %w", err)
	}
	if len(in.Candidates) == 0 {
		return nil, fmt.Errorf("control: empty candidate set")
	}
	if math.IsNaN(in.TransportLoss) || in.TransportLoss < 0 || in.TransportLoss >= 1 {
		return nil, &core.InputError{Field: "transport loss", Index: -1, Value: in.TransportLoss, Reason: "want a record-loss fraction in [0, 1)"}
	}

	// Health bookkeeping: a down monitor is excluded and owes
	// ReviveAfter healthy intervals; a recovered monitor counts them
	// down in probation before rejoining.
	downSet := make(map[topology.LinkID]bool, len(in.Down))
	for _, lid := range in.Down {
		downSet[lid] = true
	}
	var eligible, excluded []topology.LinkID
	for _, lid := range in.Candidates {
		switch {
		case downSet[lid]:
			c.probation[lid] = c.opts.ReviveAfter
			excluded = append(excluded, lid)
		case c.probation[lid] > 0:
			c.probation[lid]--
			excluded = append(excluded, lid)
		default:
			delete(c.probation, lid)
			eligible = append(eligible, lid)
		}
	}
	// Hysteresis yields to coverage: a healthy monitor still serving its
	// probation is readmitted immediately when an OD pair would otherwise
	// traverse no eligible link — flap damping is not worth losing a
	// pair's measurement entirely.
	if len(excluded) > 0 {
		eligSet := make(map[topology.LinkID]bool, len(eligible))
		for _, lid := range eligible {
			eligSet[lid] = true
		}
		held := make(map[topology.LinkID]bool, len(excluded))
		for _, lid := range excluded {
			if !downSet[lid] {
				held[lid] = true
			}
		}
		readmitted := false
		for _, row := range in.Matrix.Rows {
			covered := false
			for _, lid := range row {
				if eligSet[lid] {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			for _, lid := range row {
				if held[lid] {
					delete(c.probation, lid)
					eligSet[lid] = true
					readmitted = true
				}
			}
		}
		if readmitted {
			eligible, excluded = eligible[:0], excluded[:0]
			for _, lid := range in.Candidates {
				if eligSet[lid] {
					eligible = append(eligible, lid)
				} else {
					excluded = append(excluded, lid)
				}
			}
		}
	}
	sort.Slice(excluded, func(i, j int) bool { return excluded[i] < excluded[j] })
	if len(eligible) == 0 {
		return nil, fmt.Errorf("control: no monitor eligible (%d candidates all down or in probation)", len(in.Candidates))
	}

	robust := c.opts.Robust.Mode != core.RobustOff
	var smoothed []float64
	if robust {
		// The tracker subsumes the EWMA filter: point estimates follow
		// the same (1-α)·old + α·new recursion, but each link also
		// carries a confidence interval that tightens on observation and
		// widens while unobserved (down, in probation, or simply not
		// sampled). The solves below run against the resulting envelope.
		var err error
		if smoothed, err = c.trackLoads(in, excluded); err != nil {
			return nil, err
		}
	} else {
		// EWMA the loads (element-wise; topology size may change between
		// steps — reset the filter if it does).
		if c.ewmaLoads == nil || len(c.ewmaLoads) != len(in.Loads) {
			c.ewmaLoads = append([]float64(nil), in.Loads...)
		} else {
			a := c.opts.SmoothAlpha
			for i, u := range in.Loads {
				c.ewmaLoads[i] = (1-a)*c.ewmaLoads[i] + a*u
			}
		}
		smoothed = c.ewmaLoads
	}

	// Pairs whose entire path lost its monitors are unmeasurable this
	// interval; dropping them (instead of failing the solve outright)
	// keeps the optimization alive for everyone else.
	eligMatrix, eligInv, uncovered := c.eligCover.filter(in.Matrix, in.InvSizes, eligible)

	solveOn := func(cands []topology.LinkID, m *routing.Matrix, inv []float64) (*core.Solution, error) {
		if len(m.Pairs) == 0 {
			return nil, fmt.Errorf("control: no pair measurable on %d eligible links", len(cands))
		}
		// In robust mode the exploitation solve runs on the remaining
		// (1 - ExplorationFrac)·θ; the reserve is spent in explore below.
		budget := c.opts.Budget
		if robust {
			budget *= 1 - c.opts.Robust.ExplorationFrac
		}
		comp, err := c.cache.Get(plan.Input{
			Matrix:       m,
			Loads:        smoothed,
			Candidates:   cands,
			InvMeanSizes: inv,
			Budget:       budget,
			Model:        c.opts.Model,
		})
		if err != nil {
			return nil, err
		}
		// Warm-start from the last known-good rates: intervals are small
		// perturbations of each other, so the previous plan projected back
		// into today's feasible set is steps from the new optimum. lastGood
		// is only written after the interval's solves complete, so the
		// concurrent full/retained jobs read it safely.
		opt := c.opts.Solve
		if opt.Initial == nil && len(c.lastGood) > 0 {
			prev := make([]float64, len(cands))
			for j, lid := range cands {
				prev[j] = c.lastGood[lid]
			}
			if warm, werr := comp.Solver().WarmStart(&core.Solution{Rates: prev}, nil); werr == nil {
				opt.Initial = warm
			}
		}
		var lo, hi []float64
		if robust {
			lo = make([]float64, len(cands))
			hi = make([]float64, len(cands))
			for j, lid := range cands {
				lo[j], hi[j] = c.tracker.Bounds(int(lid))
			}
		}
		if c.approxNeeded(comp.Solver()) {
			aopt := core.ApproxOptions{Initial: opt.Initial}
			if robust {
				return comp.Solver().SolveRobustApprox(c.opts.Robust.Mode, lo, hi, aopt)
			}
			return comp.Solver().SolveApprox(aopt)
		}
		if robust {
			return comp.Solver().SolveRobust(c.opts.Robust.Mode, lo, hi, opt)
		}
		return comp.Solver().Solve(opt)
	}

	// Retained-set plan: re-tune rates on the intersection of the old
	// active set with today's eligible links (only meaningful once a set
	// is active and hysteresis is on). A failing retained solve means a
	// pair lost coverage — the set is infeasible and we must switch, so
	// its error is deliberately demoted to "no retained plan".
	var retained []topology.LinkID
	//netsamp:floateq-ok zero is the hysteresis-off sentinel, never a computed value
	if c.active != nil && c.opts.SwitchGain != 0 {
		retained = intersect(c.active, eligible)
	}
	// When the retained set IS the eligible set, both jobs would solve
	// the same problem — and, now that solves share cached workspaces,
	// would race on one compiled solver. Skip the duplicate job and alias
	// its result below.
	retainedIsFull := len(retained) > 0 && equalSets(retained, eligible)

	var full, retainedSol *core.Solution
	jobs := []engine.Job{
		func(jctx context.Context, _ *rng.Source) error {
			if in.Delay > 0 {
				t := time.NewTimer(in.Delay)
				select {
				case <-t.C:
				case <-jctx.Done():
					t.Stop()
					return jctx.Err()
				}
			}
			if in.FailSolve {
				return errInjectedSolve
			}
			var err error
			full, err = solveOn(eligible, eligMatrix, eligInv)
			return err
		},
	}
	if len(retained) > 0 && !retainedIsFull {
		// Filtered here, not inside the job: the memo belongs to the
		// step's goroutine.
		retMatrix, retInv, _ := c.retCover.filter(in.Matrix, in.InvSizes, retained)
		jobs = append(jobs, func(context.Context, *rng.Source) error {
			retainedSol, _ = solveOn(retained, retMatrix, retInv)
			return nil
		})
	}
	runErr := engine.Run(ctx, engine.Options{Workers: in.Workers, JobTimeout: c.opts.SolveTimeout}, jobs...)
	if ctx.Err() != nil {
		// The caller's deadline, not a solver failure: no fallback.
		return nil, runErr
	}
	if runErr != nil || full == nil {
		d, err := c.fallback(runErr, eligible, excluded, smoothed)
		if err != nil {
			return nil, err
		}
		d.Uncovered = uncovered
		return d, nil
	}
	if retainedIsFull {
		retainedSol = full
	}
	fullRates := plan.RatesByLink(full, eligible)
	fullSet := topology.SortedKeys(fullRates)

	c.steps++
	// First interval, no hysteresis, or no previous set: adopt.
	//netsamp:floateq-ok zero is the hysteresis-off sentinel, never a computed value
	if c.active == nil || c.opts.SwitchGain == 0 {
		changed := !equalSets(c.active, fullSet)
		c.active = fullSet
		c.rememberGood(fullRates)
		return c.finish(&Decision{Plan: fullRates, Solution: full, SetChanged: changed, Excluded: excluded, Uncovered: uncovered}, eligible), nil
	}

	if retainedSol == nil {
		c.active = fullSet
		c.rememberGood(fullRates)
		return c.finish(&Decision{Plan: fullRates, Solution: full, SetChanged: true, Excluded: excluded, Uncovered: uncovered}, eligible), nil
	}
	gain := 0.0
	//netsamp:floateq-ok exact-zero guard against dividing by the objective
	if retainedSol.Objective != 0 {
		gain = (full.Objective - retainedSol.Objective) / math.Abs(retainedSol.Objective)
	}
	if gain > c.opts.SwitchGain {
		c.active = fullSet
		c.rememberGood(fullRates)
		return c.finish(&Decision{Plan: fullRates, Solution: full, SetChanged: true, Gain: gain, Excluded: excluded, Uncovered: uncovered}, eligible), nil
	}
	// Keep the set; deploy re-tuned rates.
	rates := plan.RatesByLink(retainedSol, retained)
	c.active = topology.SortedKeys(rates)
	c.rememberGood(rates)
	return c.finish(&Decision{Plan: rates, Solution: retainedSol, SetChanged: false, Gain: gain, Excluded: excluded, Uncovered: uncovered}, eligible), nil
}

// trackLoads runs one robust-mode tracker update: every eligible link's
// raw load (with its stated error) is ingested as an observation, while
// excluded links — down or in probation — and links the caller marked
// unobserved widen their intervals. Returns the tracker's point
// estimates, the robust counterpart of the EWMA-smoothed loads.
func (c *Controller) trackLoads(in StepInput, excluded []topology.LinkID) ([]float64, error) {
	if c.tracker == nil || c.tracker.Len() != len(in.Loads) {
		c.tracker = loadtrack.MustNew(len(in.Loads), c.trackerConfig())
	}
	observed := make([]bool, len(in.Loads))
	if in.Observed == nil {
		for i := range observed {
			observed[i] = true
		}
	} else {
		if len(in.Observed) != len(in.Loads) {
			return nil, fmt.Errorf("control: %d observed flags for %d loads", len(in.Observed), len(in.Loads))
		}
		copy(observed, in.Observed)
	}
	for _, lid := range excluded {
		if int(lid) >= 0 && int(lid) < len(observed) {
			observed[lid] = false
		}
	}
	relErr := in.LoadRelErr
	if in.TransportLoss > 0 {
		// Transport loss is uncertainty every observation of the
		// interval shares: fold ℓ²/(1−ℓ) — the variance inflation the
		// estimator applies under binomial thinning at rate ρ(1−ℓ) —
		// into each link's stated error in quadrature. nil LoadRelErr
		// means "exact", which under loss is exact no longer.
		if in.LoadRelErr != nil && len(in.LoadRelErr) != len(in.Loads) {
			return nil, fmt.Errorf("control: %d load errors for %d loads", len(in.LoadRelErr), len(in.Loads))
		}
		extra := in.TransportLoss * in.TransportLoss / (1 - in.TransportLoss)
		relErr = make([]float64, len(in.Loads))
		for i := range relErr {
			var base float64
			if in.LoadRelErr != nil {
				base = in.LoadRelErr[i]
			}
			relErr[i] = math.Sqrt(base*base + extra)
		}
	}
	if err := c.tracker.Observe(in.Loads, relErr, observed); err != nil {
		return nil, err
	}
	if len(c.trackMeans) != c.tracker.Len() {
		c.trackMeans = make([]float64, c.tracker.Len())
	}
	c.tracker.MeansInto(c.trackMeans)
	return c.trackMeans, nil
}

func (c *Controller) trackerConfig() loadtrack.Config {
	return loadtrack.Config{Alpha: c.opts.SmoothAlpha, WidenFactor: c.opts.Robust.WidenFactor}
}

// finish applies the exploration reserve to a freshly solved decision.
// The reserve deliberately bypasses the hysteresis machinery: c.active
// and the last-good rates hold the exploitation plan only, so a
// rotating exploration set neither trips SetChanged churn nor leaks
// into fallback rescaling.
func (c *Controller) finish(d *Decision, eligible []topology.LinkID) *Decision {
	if d.Solution != nil && d.Solution.Approx {
		// Record the deadline policy's choice: operators auditing an
		// interval can see it was served approximately and how far from
		// the exact optimum the certificate places it.
		d.Approximated = true
		d.ApproxGap = d.Solution.GapBound
	}
	if c.opts.Robust.Mode == core.RobustOff || !(c.opts.Robust.ExplorationFrac > 0) {
		return d
	}
	d.Explored = c.explore(d.Plan, eligible)
	return d
}

// approxNeeded is the deadline policy's deterministic routing decision:
// true when the cost model predicts the exact solve on this compiled
// instance would overrun SolveTimeout. Pure function of problem size
// and configuration — no clocks — so replays and multi-site deployments
// route identically.
func (c *Controller) approxNeeded(s *core.Solver) bool {
	ap := c.opts.Approx
	return ap.Enabled && ap.Overruns(s.NNZ(), c.opts.SolveTimeout)
}

// explore spends the ExplorationFrac·θ reserve on the K eligible links
// with the widest relative confidence intervals (ties broken by LinkID,
// so the choice is deterministic). Each chosen link's rate grows by its
// equal share of the reserve priced at the link's UPPER load bound —
// the grant can only underspend the reserve, never break the Σ p·U ≤ θ
// guarantee the pessimistic exploitation solve established.
func (c *Controller) explore(rates map[topology.LinkID]float64, eligible []topology.LinkID) []topology.LinkID {
	frac := c.opts.Robust.ExplorationFrac
	k := int(math.Ceil(frac * float64(len(eligible))))
	if k < 1 {
		k = 1
	}
	if k > len(eligible) {
		k = len(eligible)
	}
	order := append([]topology.LinkID(nil), eligible...)
	sort.Slice(order, func(i, j int) bool {
		ri, rj := c.tracker.Rel(int(order[i])), c.tracker.Rel(int(order[j]))
		//netsamp:floateq-ok an exact tie falls through to the LinkID order
		if ri != rj {
			return ri > rj
		}
		return order[i] < order[j]
	})
	share := c.opts.Budget * frac / float64(k)
	explored := make([]topology.LinkID, 0, k)
	for _, lid := range order[:k] {
		_, hi := c.tracker.Bounds(int(lid))
		if !(hi > 0) {
			continue
		}
		rates[lid] = math.Min(1, rates[lid]+share/hi)
		explored = append(explored, lid)
	}
	sort.Slice(explored, func(i, j int) bool { return explored[i] < explored[j] })
	return explored
}

// TrackerState returns a snapshot of the robust load tracker, or nil
// when none is live (robust mode off, or no robust step taken yet).
func (c *Controller) TrackerState() *loadtrack.State {
	if c.tracker == nil {
		return nil
	}
	st := c.tracker.Snapshot()
	return &st
}

// fallback serves an interval whose re-optimization failed: the last
// known-good plan restricted to surviving (eligible) monitors, rescaled
// so Σ p_i·U_i ≤ θ against the smoothed load estimate. The stored last
// good plan is left untouched — a later interval with more survivors
// restores their rates.
func (c *Controller) fallback(cause error, eligible, excluded []topology.LinkID, loads []float64) (*Decision, error) {
	if len(c.lastGood) == 0 {
		return nil, fmt.Errorf("%w: no previous plan (cause: %v)", ErrNoFallback, cause)
	}
	elig := make(map[topology.LinkID]bool, len(eligible))
	for _, lid := range eligible {
		elig[lid] = true
	}
	fb := make(map[topology.LinkID]float64)
	for lid, p := range c.lastGood {
		if elig[lid] {
			fb[lid] = p
		}
	}
	if len(fb) == 0 {
		return nil, fmt.Errorf("%w: no surviving monitor carries the previous plan (cause: %v)", ErrNoFallback, cause)
	}
	// Rescale into the budget: overspend (load growth since the plan was
	// made) scales down; capacity freed by dead monitors is re-spent on
	// the survivors, capped at rate 1. Either way Σ p_i·U_i ≤ θ holds.
	if spend := plan.SampledRate(fb, loads); spend > c.opts.Budget || spend < c.opts.Budget*(1-1e-6) && spend > 0 {
		scale := c.opts.Budget / spend
		for lid := range fb {
			fb[lid] = math.Min(1, fb[lid]*scale)
		}
	}
	set := topology.SortedKeys(fb)
	changed := !equalSets(c.active, set)
	c.active = set
	c.steps++
	c.fallbacks++
	return &Decision{Plan: fb, SetChanged: changed, Degraded: true, Excluded: excluded}, nil
}

// coverage is one remembered coverage-filtered matrix: plan.Cache keys
// on the matrix pointer, so a filter over the same source matrix and
// candidate set must return the matrix it built last time, not an equal
// copy — otherwise every interval of a held outage recompiles.
type coverage struct {
	src   *routing.Matrix
	cands []topology.LinkID
	m     *routing.Matrix
}

// filter drops OD pairs that traverse no link of cands: their
// measurement is impossible on that monitor set, and failing the whole
// interval for them would be the opposite of graceful degradation. It
// returns the (possibly shared) filtered matrix, the matching utility
// parameters, and the number of pairs dropped.
func (cv *coverage) filter(m *routing.Matrix, inv []float64, cands []topology.LinkID) (*routing.Matrix, []float64, int) {
	set := make(map[topology.LinkID]bool, len(cands))
	for _, lid := range cands {
		set[lid] = true
	}
	keep := make([]bool, len(m.Pairs))
	dropped := 0
	for k, row := range m.Rows {
		for _, lid := range row {
			if set[lid] {
				keep[k] = true
				break
			}
		}
		if !keep[k] {
			dropped++
		}
	}
	if dropped == 0 {
		return m, inv, 0
	}
	finv := make([]float64, 0, len(m.Pairs)-dropped)
	for k := range m.Pairs {
		if keep[k] {
			finv = append(finv, inv[k])
		}
	}
	if cv.src == m && equalSets(cv.cands, cands) {
		return cv.m, finv, dropped
	}
	fm := &routing.Matrix{}
	for k := range m.Pairs {
		if !keep[k] {
			continue
		}
		fm.Pairs = append(fm.Pairs, m.Pairs[k])
		fm.Rows = append(fm.Rows, m.Rows[k])
		if m.Fracs != nil {
			fm.Fracs = append(fm.Fracs, m.Fracs[k])
		}
	}
	*cv = coverage{src: m, cands: append([]topology.LinkID(nil), cands...), m: fm}
	return fm, finv, dropped
}

// rememberGood merges a freshly solved plan into the per-monitor last
// known-good rates.
func (c *Controller) rememberGood(rates map[topology.LinkID]float64) {
	if c.lastGood == nil {
		c.lastGood = make(map[topology.LinkID]float64, len(rates))
	}
	for lid, p := range rates {
		c.lastGood[lid] = p
	}
}

func copyRates(m map[topology.LinkID]float64) map[topology.LinkID]float64 {
	out := make(map[topology.LinkID]float64, len(m))
	for lid, p := range m {
		out[lid] = p
	}
	return out
}

func equalSets(a, b []topology.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intersect(a, b []topology.LinkID) []topology.LinkID {
	set := make(map[topology.LinkID]bool, len(b))
	for _, lid := range b {
		set[lid] = true
	}
	var out []topology.LinkID
	for _, lid := range a {
		if set[lid] {
			out = append(out, lid)
		}
	}
	return out
}
