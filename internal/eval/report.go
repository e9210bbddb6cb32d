package eval

import (
	"context"
	"fmt"
	"io"

	"netsamp/internal/core"
	"netsamp/internal/geant"
)

// ReportConfig sizes the full evaluation report.
type ReportConfig struct {
	Theta           float64 // packets per interval (0 → 100,000)
	Trials          int     // sampling experiments per pair (0 → 20)
	ConvergenceRuns int     // randomized solver runs (0 → 200)
	DynamicSteps    int     // intervals in the dynamic study (0 → 24)
	Seed            uint64
}

func (c ReportConfig) withDefaults() ReportConfig {
	if c.Theta <= 0 {
		c.Theta = 100000
	}
	if c.Trials <= 0 {
		c.Trials = 20
	}
	if c.ConvergenceRuns <= 0 {
		c.ConvergenceRuns = 200
	}
	if c.DynamicSteps <= 0 {
		c.DynamicSteps = 24
	}
	return c
}

// WriteReport runs every experiment on the scenario and writes one
// self-contained markdown report (the `netsamp report` command).
func WriteReport(w io.Writer, s *geant.Scenario, cfg ReportConfig) error {
	cfg = cfg.withDefaults()
	section := func(title string) {
		fmt.Fprintf(w, "\n## %s\n\n```\n", title)
	}
	endSection := func() { fmt.Fprint(w, "```\n") }

	fmt.Fprintln(w, "# netsamp evaluation report")
	fmt.Fprintf(w, "\nScenario: %d nodes, %d links, %d OD pairs; θ = %.0f packets per %.0f s interval; seed %d.\n",
		s.Graph.NumNodes(), s.Graph.NumLinks(), len(s.Pairs), cfg.Theta, Interval, cfg.Seed)

	section("Figure 1 — utility function")
	if err := RenderFigure1(w, Figure1(21)); err != nil {
		return err
	}
	endSection()

	section("Table I — optimal sampling plan")
	t1, err := Table1(s, cfg.Theta, cfg.Trials, cfg.Seed+1000)
	if err != nil {
		return err
	}
	if err := RenderTable1(w, t1); err != nil {
		return err
	}
	endSection()

	section("Figure 2 — accuracy vs capacity")
	f2, err := Figure2(context.Background(), s, DefaultThetas(), cfg.Trials, cfg.Seed+2000, 0)
	if err != nil {
		return err
	}
	if err := RenderFigure2(w, f2); err != nil {
		return err
	}
	endSection()

	section("Figure 2 (extended) — all baselines, worst-pair accuracy")
	f2x, err := Figure2Extended(context.Background(), s, DefaultThetas(), cfg.Trials, cfg.Seed+2000, 0)
	if err != nil {
		return err
	}
	if err := RenderFigure2Extended(w, f2x); err != nil {
		return err
	}
	endSection()

	section("Solver convergence (§IV-D)")
	conv, err := ConvergenceStudy(context.Background(), s, cfg.ConvergenceRuns, cfg.Seed+3000, core.Options{}, 0)
	if err != nil {
		return err
	}
	if err := RenderConvergence(w, conv); err != nil {
		return err
	}
	endSection()

	section("Access-link comparison (§V-C)")
	acc, err := AccessLinkComparison(s, cfg.Theta)
	if err != nil {
		return err
	}
	if err := RenderAccessComparison(w, acc); err != nil {
		return err
	}
	endSection()

	section("Traffic-matrix estimation comparison")
	tm, err := TMStudy(context.Background(), s, cfg.Theta, cfg.Trials, cfg.Seed+5000, 0)
	if err != nil {
		return err
	}
	if err := RenderTM(w, tm); err != nil {
		return err
	}
	endSection()

	section("Anomaly-detection placement")
	det, err := DetectionStudy(context.Background(), s, cfg.Theta, 500, 0)
	if err != nil {
		return err
	}
	if err := RenderDetection(w, det); err != nil {
		return err
	}
	endSection()

	section("Dynamic re-optimization")
	dyn, err := DynamicStudy(context.Background(), s, cfg.DynamicSteps, cfg.Theta, cfg.Seed+4000, 0)
	if err != nil {
		return err
	}
	if err := RenderDynamic(w, dyn); err != nil {
		return err
	}
	endSection()
	return nil
}
