package eval

import (
	"fmt"
	"io"

	"netsamp/internal/core"
	"netsamp/internal/geant"
	"netsamp/internal/plan"
)

// MaxMinComparison sets the sum objective's optimum beside the certified
// max-min optimum (core.SolveMaxMinExact) of the JANET task — the
// alternative objective the paper defers to future work.
type MaxMinComparison struct {
	Theta      float64 // packets per interval
	Pairs      []string
	Sum, Exact *core.Solution
}

// MaxMinStudy solves the JANET task at θ packets per interval under both
// objectives.
func MaxMinStudy(s *geant.Scenario, theta float64) (*MaxMinComparison, error) {
	prob, err := plan.Build(plan.Input{
		Matrix:       s.Matrix,
		Loads:        s.Loads,
		Candidates:   s.MonitorLinks,
		InvMeanSizes: s.UtilityParams(Interval),
		Budget:       core.BudgetPerInterval(theta, Interval),
	})
	if err != nil {
		return nil, err
	}
	res := &MaxMinComparison{Theta: theta}
	if res.Sum, err = core.Solve(prob, core.Options{}); err != nil {
		return nil, err
	}
	if res.Exact, err = core.SolveMaxMinExact(prob, 0); err != nil {
		return nil, err
	}
	for _, pr := range s.Pairs {
		res.Pairs = append(res.Pairs, pr.Name)
	}
	return res, nil
}

// RenderMaxMin writes the worst pair's utility and the monitor count
// under each objective, then every pair's utility.
func RenderMaxMin(w io.Writer, r *MaxMinComparison) error {
	minOf := func(u []float64) float64 {
		m := u[0]
		for _, v := range u {
			if v < m {
				m = v
			}
		}
		return m
	}
	if _, err := fmt.Fprintf(w, "Max-min variant (paper's future-work objective) at θ = %.0f\n\n", r.Theta); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s %14s %14s\n", "", "sum objective", "maxmin exact")
	fmt.Fprintf(w, "%-28s %14.4f %14.4f\n", "worst OD-pair utility",
		minOf(r.Sum.Utilities), minOf(r.Exact.Utilities))
	fmt.Fprintf(w, "%-28s %14d %14d\n", "active monitors",
		len(r.Sum.ActiveMonitors()), len(r.Exact.ActiveMonitors()))
	fmt.Fprintf(w, "\nper-pair utilities:\n")
	for k, name := range r.Pairs {
		fmt.Fprintf(w, "  %-12s %8.4f %8.4f\n", name, r.Sum.Utilities[k], r.Exact.Utilities[k])
	}
	return nil
}
