package eval

import (
	"fmt"
	"io"
	"strings"
)

// RenderTable1 writes Table I in a layout mirroring the paper: one
// section per active monitor link, one row per OD pair with its
// utility and measured accuracy, and the load/contribution footer.
func RenderTable1(w io.Writer, r *Table1Result) error {
	if _, err := fmt.Fprintf(w, "Table I — optimal sampling rates, θ = %.0f packets / %.0f s interval\n\n",
		r.Theta, Interval); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %12s %14s %14s  %s\n", "link", "rate p_i", "load (pkt/s)", "share of θ", "OD pairs sampled here")
	fmt.Fprintln(w, strings.Repeat("-", 96))
	for _, l := range r.Links {
		fmt.Fprintf(w, "%-10s %12.6f %14.0f %13.1f%%  %s\n",
			l.Name, l.Rate, l.Load, 100*l.Contribution, strings.Join(l.Pairs, " "))
	}
	fmt.Fprintf(w, "\n%-12s %12s %-24s %9s %9s\n", "OD pair", "pkt/s", "monitored on", "utility", "accuracy")
	fmt.Fprintln(w, strings.Repeat("-", 72))
	for _, row := range r.Rows {
		mon := strings.Join(row.Monitored, " ")
		if mon == "" {
			mon = "(none)"
		}
		fmt.Fprintf(w, "%-12s %12.0f %-24s %9.4f %9.4f\n",
			row.Name, row.RatePkts, mon, row.Utility, row.Accuracy)
	}
	fmt.Fprintf(w, "\nactive monitors: %d of %d candidate links; max monitors per OD pair: %d\n",
		len(r.Links), len(r.Solution.Rates), r.MaxMonitorsPerPair)
	fmt.Fprintf(w, "solver: %d iterations, %d constraint removals, converged=%v\n",
		r.Solution.Stats.Iterations, r.Solution.Stats.Removals, r.Solution.Stats.Converged)
	return nil
}

// RenderFigure1 writes the Figure 1 series as aligned columns (ρ, M for
// both flow-size regimes), with the stitch points in the header.
func RenderFigure1(w io.Writer, r Figure1Result) error {
	if _, err := fmt.Fprintf(w,
		"Figure 1 — utility M(ρ); x0(c=%.4g) = %.6f (M=%.3f), x0(c=%.4g) = %.6f (M=%.3f)\n",
		r.C1, r.X01, r.MX01, r.C2, r.X02, r.MX02); err != nil {
		return err
	}
	fmt.Fprintf(w, "%10s %12s %12s\n", "rho", "M(avg~500)", "M(avg~1500)")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%10.5f %12.6f %12.6f\n", p.Rho, p.M1, p.M2)
	}
	return nil
}

// RenderFigure2 writes the Figure 2 sweep: per θ, the average/worst/best
// accuracy of the optimal and UK-links-only solutions.
func RenderFigure2(w io.Writer, points []Figure2Point) error {
	if _, err := fmt.Fprintf(w, "Figure 2 — accuracy vs θ (packets per %.0f s interval)\n\n", Interval); err != nil {
		return err
	}
	fmt.Fprintf(w, "%10s | %8s %8s %8s | %8s %8s %8s\n",
		"theta", "opt avg", "opt wrst", "opt best", "uk avg", "uk wrst", "uk best")
	fmt.Fprintln(w, strings.Repeat("-", 70))
	for _, p := range points {
		fmt.Fprintf(w, "%10.0f | %8.4f %8.4f %8.4f | %8.4f %8.4f %8.4f\n",
			p.Theta,
			p.Optimal.Average, p.Optimal.Worst, p.Optimal.Best,
			p.UKOnly.Average, p.UKOnly.Worst, p.UKOnly.Best)
	}
	return nil
}

// RenderConvergence writes the Section IV-D statistics.
func RenderConvergence(w io.Writer, r *ConvergenceResult) error {
	_, err := fmt.Fprintf(w,
		"Convergence study (Section IV-D): %d randomized runs\n"+
			"  converged within 2000 iterations: %d (%.1f%%)   [paper: 98.6%%]\n"+
			"  constraint removals per run: %.2f ± %.2f        [paper: 1.64 ± 1.27]\n"+
			"  mean iterations: %.1f, max: %d\n",
		r.Runs, r.Converged, r.PctConverged, r.MeanRemovals, r.StdRemovals,
		r.MeanIterations, r.MaxIterations)
	return err
}

// RenderAccessComparison writes the Section V-C capacity comparison.
func RenderAccessComparison(w io.Writer, r *AccessComparison) error {
	_, err := fmt.Fprintf(w,
		"Access-link comparison (Section V-C) at θ = %.0f packets/interval\n"+
			"  driving OD pair (largest optimal effective rate): %s (ρ = %.5f)\n"+
			"  access-link-only capacity for equal per-pair accuracy: %.0f packets/interval\n"+
			"  capacity overhead vs optimal: %.0f%%              [paper: ≈70%%]\n",
		r.Theta, r.DrivingPair, r.RequiredRho, r.AccessTheta, r.OverheadPct)
	return err
}

// WriteCSV writes a rectangular table as CSV: header then rows.
func WriteCSV(w io.Writer, header []string, rows [][]string) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	line := func(fields []string) error {
		for i, f := range fields {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, esc(f)); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := line(header); err != nil {
		return err
	}
	for _, row := range rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// Figure2CSV converts the sweep to CSV rows.
func Figure2CSV(points []Figure2Point) (header []string, rows [][]string) {
	header = []string{"theta", "opt_avg", "opt_worst", "opt_best", "uk_avg", "uk_worst", "uk_best"}
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.Theta),
			fmt.Sprintf("%.6f", p.Optimal.Average),
			fmt.Sprintf("%.6f", p.Optimal.Worst),
			fmt.Sprintf("%.6f", p.Optimal.Best),
			fmt.Sprintf("%.6f", p.UKOnly.Average),
			fmt.Sprintf("%.6f", p.UKOnly.Worst),
			fmt.Sprintf("%.6f", p.UKOnly.Best),
		})
	}
	return header, rows
}

// Table1CSV converts Table I to CSV: one row per OD pair plus a
// link-plan section (prefixed rows).
func Table1CSV(r *Table1Result) (header []string, rows [][]string) {
	header = []string{"kind", "name", "rate_or_pkts", "load_or_utility", "share_or_accuracy"}
	for _, l := range r.Links {
		rows = append(rows, []string{
			"link", l.Name,
			fmt.Sprintf("%.8f", l.Rate),
			fmt.Sprintf("%.2f", l.Load),
			fmt.Sprintf("%.6f", l.Contribution),
		})
	}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			"pair", row.Name,
			fmt.Sprintf("%.2f", row.RatePkts),
			fmt.Sprintf("%.6f", row.Utility),
			fmt.Sprintf("%.6f", row.Accuracy),
		})
	}
	return header, rows
}
