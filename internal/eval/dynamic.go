package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"netsamp/internal/core"
	"netsamp/internal/engine"
	"netsamp/internal/geant"
	"netsamp/internal/plan"
	"netsamp/internal/rng"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
	"netsamp/internal/traffic"
)

// DynamicStudy quantifies the paper's motivating claim (Section I):
// "short term variations due to failures and other anomalous events as
// well as longer term variations … quickly make a static placement of
// traffic monitors perform sub-optimally."
//
// Over a sequence of measurement intervals the background traffic
// follows a diurnal cycle with noise, the JANET demands jitter, one
// interval carries a traffic anomaly (the smallest OD pair collapses),
// and midway a core circuit fails and re-routes traffic. Two operators
// are compared:
//
//   - static: computes the optimal plan once, at interval 0, and keeps it;
//   - dynamic: re-optimizes every interval (the paper's proposal —
//     router-embedded monitors make re-activation free).
//
// The study reports each operator's worst-pair utility per interval and
// the monitor-set churn of the dynamic plan.

// DynamicPoint is one interval of the study.
type DynamicPoint struct {
	Interval int
	// StaticObj and DynamicObj are the sum-of-utilities objectives of
	// the stale interval-0 plan and the re-optimized plan under the
	// interval's conditions. The re-optimized plan is the optimum, so
	// DynamicObj >= StaticObj whenever the stale plan stays within
	// budget.
	StaticObj, DynamicObj float64
	// StaticWorst and DynamicWorst are the corresponding worst-pair
	// utilities (reported for the fairness picture).
	StaticWorst, DynamicWorst float64
	// StaticSpend is the sampled packet rate the stale plan consumes
	// under the interval's loads, relative to the budget (1 = exactly
	// θ). Traffic growth makes a static plan silently overspend its
	// resource cap; decay strands capacity.
	StaticSpend float64
	// Churn is the number of monitor activations plus deactivations
	// relative to the previous interval's dynamic plan.
	Churn int
	// Failed reports whether the failure event is active.
	Failed bool
	// Anomaly reports whether the traffic anomaly is active.
	Anomaly bool
}

// DynamicResult aggregates the study.
type DynamicResult struct {
	Points []DynamicPoint
	// MeanStaticObj and MeanDynamicObj average the objectives.
	MeanStaticObj, MeanDynamicObj float64
	// MinStaticWorst and MinDynamicWorst are the worst worst-pair
	// utilities over the run.
	MinStaticWorst, MinDynamicWorst float64
	// MaxStaticOverspend is the largest StaticSpend observed (> 1 means
	// the stale plan exceeded the resource cap).
	MaxStaticOverspend float64
	// TotalChurn sums monitor-set changes across the run.
	TotalChurn int
}

// dynamicChunkSize is the continuation chunk of the per-interval
// re-optimization: each chunk of consecutive intervals is one warm-start
// chain. Fixed (never derived from the worker count) so the chains, and
// therefore the results, are identical for every worker count.
const dynamicChunkSize = 8

// dynamicInterval is one interval's world state, assembled sequentially
// (graph mutation and the shared jitter stream force ordering), then
// re-optimized in parallel.
type dynamicInterval struct {
	matrix     *routing.Matrix
	candidates []topology.LinkID
	loads      []float64
	inv        []float64
	failed     bool
	anomaly    bool
}

// DynamicStudy runs the study for the given number of intervals at θ
// packets per interval (workers = 0 selects GOMAXPROCS), in three
// phases: a sequential input phase that plays out the traffic/routing
// dynamics (it mutates the scenario graph and consumes one jitter
// stream, so order matters), a parallel phase that re-optimizes every
// interval on the engine's worker pool, and a sequential aggregation
// phase (the static-vs-dynamic comparison and churn depend on interval
// order). The per-interval optimizations dominate the cost and are
// order-independent, so the result is identical for every worker count.
func DynamicStudy(ctx context.Context, s *geant.Scenario, intervals int, theta float64, seed uint64, workers int) (*DynamicResult, error) {
	if intervals <= 0 {
		intervals = 24
	}
	r := rng.New(seed)
	profile := traffic.Diurnal{Period: intervals, Trough: 0.5, Peak: 1.2, Noise: 0.1}
	budget := core.BudgetPerInterval(theta, Interval)
	failAt := intervals / 2
	anomalyAt := intervals / 3

	// The failure: take down the FR-CH circuit (both directions).
	frch, ok := s.Graph.FindLink(s.Graph.MustNode("FR"), s.Graph.MustNode("CH"))
	if !ok {
		return nil, fmt.Errorf("eval: FR->CH missing from scenario")
	}
	chfr, _ := s.Graph.FindLink(s.Graph.MustNode("CH"), s.Graph.MustNode("FR"))
	defer func() {
		s.Graph.SetDown(frch, false)
		s.Graph.SetDown(chfr, false)
	}()

	// Phase 1 (sequential): play out the dynamics. Routing is a pure
	// function of the topology state, which changes only at the failure
	// boundary — so the table, matrix and candidate set are recomputed
	// only when the boundary is crossed and shared (same pointers) by
	// every interval of a topology regime. The shared matrix identity is
	// what lets phase 2's plan.Cache reuse one compiled solver across a
	// regime's intervals.
	worlds := make([]dynamicInterval, intervals)
	var (
		tbl        *routing.Table
		matrix     *routing.Matrix
		candidates []topology.LinkID
	)
	for t := 0; t < intervals; t++ {
		failed := t >= failAt
		anomaly := t == anomalyAt

		// Current routing and candidate set: rebuilt on topology change
		// only (interval 0 and the failure boundary).
		if matrix == nil || failed != worlds[t-1].failed {
			s.Graph.SetDown(frch, failed)
			s.Graph.SetDown(chfr, failed)
			tbl = routing.ComputeTable(s.Graph)
			var err error
			matrix, err = routing.BuildMatrix(tbl, s.Pairs)
			if err != nil {
				return nil, fmt.Errorf("eval: interval %d: %w", t, err)
			}
			candidates = nil
			for _, lid := range matrix.LinkSet() {
				if !s.Graph.Link(lid).Access {
					candidates = append(candidates, lid)
				}
			}
		}

		// Current traffic: diurnal background, jittered JANET demands.
		w, err := synthesizeWorld(s, tbl, profile, t, r, func(rates []float64) {
			if anomaly {
				rates[len(rates)-1] *= 0.1 // the smallest pair collapses
			}
		})
		if err != nil {
			return nil, fmt.Errorf("eval: interval %d: %w", t, err)
		}
		worlds[t] = dynamicInterval{
			matrix: matrix, candidates: candidates, loads: w.Loads, inv: w.Inv,
			failed: failed, anomaly: anomaly,
		}
	}

	// Phase 2 (parallel): the dynamic operator re-optimizes every
	// interval. The intervals are grouped into fixed-size continuation
	// chunks — a fixed function of the interval grid, never of the
	// worker count — and each chunk is one engine job owning a private
	// plan.Cache. Within a chunk, successive intervals of one topology
	// regime reuse the compiled solver (only loads and utility
	// parameters change) and warm-start from the previous interval's
	// optimum; the failure boundary changes the matrix identity, so the
	// chain restarts cold there, exactly when the problem structure
	// genuinely changed.
	plans := make([]map[topology.LinkID]float64, intervals)
	nChunks := (intervals + dynamicChunkSize - 1) / dynamicChunkSize
	_, err := engine.Map(ctx, engine.Options{Workers: workers}, nChunks,
		func(_ context.Context, chunk int, _ *rng.Source) (struct{}, error) {
			lo := chunk * dynamicChunkSize
			hi := lo + dynamicChunkSize
			if hi > intervals {
				hi = intervals
			}
			cache := plan.NewCache()
			var (
				prev     *core.Solution
				prevComp *plan.Compiled
				warm     []float64
			)
			for t := lo; t < hi; t++ {
				w := &worlds[t]
				comp, err := cache.Get(plan.Input{
					Matrix: w.matrix, Loads: w.loads, Candidates: w.candidates,
					InvMeanSizes: w.inv, Budget: budget,
				})
				if err != nil {
					return struct{}{}, fmt.Errorf("eval: interval %d: %w", t, err)
				}
				opt := core.Options{}
				if prev != nil && comp == prevComp {
					if warm, err = comp.Solver().WarmStart(prev, warm); err != nil {
						return struct{}{}, fmt.Errorf("eval: interval %d: %w", t, err)
					}
					opt.Initial = warm
				}
				sol, err := comp.Solver().Solve(opt)
				if err != nil {
					return struct{}{}, fmt.Errorf("eval: interval %d: %w", t, err)
				}
				plans[t] = plan.RatesByLink(sol, w.candidates)
				prev, prevComp = sol, comp
			}
			return struct{}{}, nil
		})
	if err != nil {
		return nil, err
	}

	// Phase 3 (sequential): compare the stale interval-0 plan against
	// the re-optimized plans and account churn.
	res := &DynamicResult{MinStaticWorst: math.Inf(1), MinDynamicWorst: math.Inf(1)}
	staticPlan := plans[0]
	var prevDynamic map[topology.LinkID]float64
	rho := make([]float64, len(s.Pairs))
	for t := 0; t < intervals; t++ {
		w := &worlds[t]
		dynamicPlan := plans[t]
		evaluate := func(assign map[topology.LinkID]float64) (obj, worst float64) {
			plan.EffectiveRatesInto(rho, w.matrix, assign, nil)
			worst = math.Inf(1)
			for k := range rho {
				u := core.MustSRE(w.inv[k]).Value(rho[k])
				obj += u
				if u < worst {
					worst = u
				}
			}
			return obj, worst
		}
		point := DynamicPoint{
			Interval:    t,
			Failed:      w.failed,
			Anomaly:     w.anomaly,
			StaticSpend: plan.SampledRate(staticPlan, w.loads) / budget,
		}
		point.StaticObj, point.StaticWorst = evaluate(staticPlan)
		point.DynamicObj, point.DynamicWorst = evaluate(dynamicPlan)
		if prevDynamic != nil {
			point.Churn = planChurn(prevDynamic, dynamicPlan)
		}
		prevDynamic = dynamicPlan
		res.Points = append(res.Points, point)
		res.MeanStaticObj += point.StaticObj
		res.MeanDynamicObj += point.DynamicObj
		res.MinStaticWorst = math.Min(res.MinStaticWorst, point.StaticWorst)
		res.MinDynamicWorst = math.Min(res.MinDynamicWorst, point.DynamicWorst)
		res.MaxStaticOverspend = math.Max(res.MaxStaticOverspend, point.StaticSpend)
		res.TotalChurn += point.Churn
	}
	n := float64(len(res.Points))
	res.MeanStaticObj /= n
	res.MeanDynamicObj /= n
	return res, nil
}

// planChurn counts activations + deactivations between two plans.
func planChurn(prev, next map[topology.LinkID]float64) int {
	churn := 0
	for lid := range next {
		if _, ok := prev[lid]; !ok {
			churn++
		}
	}
	for lid := range prev {
		if _, ok := next[lid]; !ok {
			churn++
		}
	}
	return churn
}

// RenderDynamic writes the study as a per-interval table.
func RenderDynamic(w io.Writer, r *DynamicResult) error {
	if _, err := fmt.Fprintf(w, "Dynamic re-optimization study (%d intervals of %.0f s)\n\n", len(r.Points), Interval); err != nil {
		return err
	}
	fmt.Fprintf(w, "%8s | %11s %11s | %11s %11s | %7s %6s %s\n",
		"interval", "static obj", "dyn obj", "static wrst", "dyn wrst", "spend", "churn", "events")
	fmt.Fprintln(w, strings.Repeat("-", 94))
	for _, p := range r.Points {
		events := ""
		if p.Anomaly {
			events += " anomaly"
		}
		if p.Failed {
			events += " link-down"
		}
		fmt.Fprintf(w, "%8d | %11.4f %11.4f | %11.4f %11.4f | %6.2fx %6d%s\n",
			p.Interval, p.StaticObj, p.DynamicObj, p.StaticWorst, p.DynamicWorst, p.StaticSpend, p.Churn, events)
	}
	fmt.Fprintf(w, "\nmean objective:  static %.4f, re-optimized %.4f\n", r.MeanStaticObj, r.MeanDynamicObj)
	fmt.Fprintf(w, "worst pair over run: static %.4f, re-optimized %.4f\n", r.MinStaticWorst, r.MinDynamicWorst)
	fmt.Fprintf(w, "stale plan peak budget use: %.2fx of cap; dynamic plan churn: %d changes\n",
		r.MaxStaticOverspend, r.TotalChurn)
	return nil
}
