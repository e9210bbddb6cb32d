package eval

import (
	"context"
	"math"
	"strings"
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/geant"
)

func scenario(t *testing.T) *geant.Scenario {
	t.Helper()
	return geant.MustBuild(1)
}

func TestFigure1ShapeAndAnnotations(t *testing.T) {
	r := Figure1(101)
	if len(r.Points) != 101 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if r.Points[0].Rho != 0 || r.Points[100].Rho != 1 {
		t.Fatalf("abscissa range [%v, %v]", r.Points[0].Rho, r.Points[100].Rho)
	}
	// Paper's annotations: x0 ≈ 0.005988 / 0.002, M(x0) ≈ 0.666…0.668.
	if math.Abs(r.X01-0.005988) > 1e-5 || math.Abs(r.X02-0.002) > 2e-5 {
		t.Fatalf("x0 = %v / %v", r.X01, r.X02)
	}
	if math.Abs(r.MX01-2.0/3) > 0.005 || math.Abs(r.MX02-2.0/3) > 0.005 {
		t.Fatalf("M(x0) = %v / %v", r.MX01, r.MX02)
	}
	// M(0) = 0, M(1) = 1 for both curves; monotone increasing.
	if r.Points[0].M1 != 0 || r.Points[0].M2 != 0 {
		t.Fatal("M(0) != 0")
	}
	if math.Abs(r.Points[100].M1-1) > 1e-9 || math.Abs(r.Points[100].M2-1) > 1e-9 {
		t.Fatalf("M(1) = %v / %v", r.Points[100].M1, r.Points[100].M2)
	}
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].M1 <= r.Points[i-1].M1 || r.Points[i].M2 <= r.Points[i-1].M2 {
			t.Fatalf("utility not increasing at %d", i)
		}
	}
	// The smaller-c (larger flows) curve dominates: bigger flows are
	// easier to estimate at the same ρ.
	mid := r.Points[50]
	if mid.M2 <= mid.M1 {
		t.Fatalf("M(avg 1500) = %v not above M(avg 500) = %v at ρ=%v", mid.M2, mid.M1, mid.Rho)
	}
}

func TestTable1ReproducesPaperShape(t *testing.T) {
	s := scenario(t)
	r, err := Table1(s, 100000, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Solution.Stats.Converged {
		t.Fatal("Table I solve did not converge")
	}
	// Paper shape (Section V-B): the optimum activates a small subset of
	// the candidate links...
	if len(r.Links) == 0 || len(r.Links) >= len(s.MonitorLinks) {
		t.Fatalf("active links = %d of %d", len(r.Links), len(s.MonitorLinks))
	}
	// ...every OD pair is sampled on at most two links...
	if r.MaxMonitorsPerPair > 2 {
		t.Fatalf("a pair is sampled on %d links (paper: at most 2)", r.MaxMonitorsPerPair)
	}
	// ...sampling rates are low (~1% or below on every link)...
	for _, l := range r.Links {
		if l.Rate > 0.02 {
			t.Fatalf("rate on %s = %v, want low rates", l.Name, l.Rate)
		}
	}
	// ...the budget shares sum to 1...
	sum := 0.0
	for _, l := range r.Links {
		sum += l.Contribution
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("contributions sum to %v", sum)
	}
	// ...and the measurement is accurate and fair: the paper reports
	// average accuracy above 0.89 for every OD pair.
	for _, row := range r.Rows {
		if row.Accuracy < 0.85 {
			t.Fatalf("pair %s accuracy = %v (paper: ≥0.89 on all pairs)", row.Name, row.Accuracy)
		}
		if row.Utility <= 0 {
			t.Fatalf("pair %s has zero utility", row.Name)
		}
	}
	// The distal stub links that make small pairs cheap must be active.
	names := map[string]bool{}
	for _, l := range r.Links {
		names[l.Name] = true
	}
	for _, want := range []string{"FR->LU", "CZ->SK"} {
		if !names[want] {
			t.Fatalf("expected distal link %s active; active set: %v", want, names)
		}
	}
}

func TestTable1UtilityTracksAccuracy(t *testing.T) {
	// Utilities are balanced across pairs (the paper's fairness claim):
	// min and max utility within a moderate band.
	s := scenario(t)
	r, err := Table1(s, 100000, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	minU, maxU := math.Inf(1), math.Inf(-1)
	for _, row := range r.Rows {
		minU = math.Min(minU, row.Utility)
		maxU = math.Max(maxU, row.Utility)
	}
	if minU < 0.5*maxU {
		t.Fatalf("utilities unbalanced: min %v, max %v", minU, maxU)
	}
}

func TestFigure2Shape(t *testing.T) {
	s := scenario(t)
	thetas := []float64{20000, 100000, 500000}
	points, err := Figure2(context.Background(), s, thetas, 10, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(thetas) {
		t.Fatalf("points = %d", len(points))
	}
	for i, p := range points {
		// The optimum dominates the UK restriction on worst-pair accuracy
		// (the paper's headline comparison), with a small statistical
		// tolerance at high θ where both saturate.
		if p.Optimal.Worst < p.UKOnly.Worst-0.02 {
			t.Fatalf("θ=%v: optimal worst %v below UK-only worst %v",
				p.Theta, p.Optimal.Worst, p.UKOnly.Worst)
		}
		if p.Optimal.Average < p.UKOnly.Average-0.02 {
			t.Fatalf("θ=%v: optimal avg %v below UK-only avg %v",
				p.Theta, p.Optimal.Average, p.UKOnly.Average)
		}
		// Accuracy is non-decreasing in θ for the optimum.
		if i > 0 && p.Optimal.Average < points[i-1].Optimal.Average-0.02 {
			t.Fatalf("optimal average accuracy dropped with higher θ: %v → %v",
				points[i-1].Optimal.Average, p.Optimal.Average)
		}
		// Bounds sanity: worst ≤ average ≤ best ≤ 1.
		for _, s := range []struct{ w, a, b float64 }{
			{p.Optimal.Worst, p.Optimal.Average, p.Optimal.Best},
			{p.UKOnly.Worst, p.UKOnly.Average, p.UKOnly.Best},
		} {
			if !(s.w <= s.a+1e-9 && s.a <= s.b+1e-9 && s.b <= 1+1e-9) {
				t.Fatalf("θ=%v: summary ordering broken: %+v", p.Theta, s)
			}
		}
	}
	// The gap must be visible at the low-capacity end: the UK restriction
	// hurts the worst (small) OD pairs there.
	if points[0].Optimal.Worst <= points[0].UKOnly.Worst {
		t.Fatalf("no worst-pair gap at low θ: %v vs %v",
			points[0].Optimal.Worst, points[0].UKOnly.Worst)
	}
}

func TestConvergenceStudy(t *testing.T) {
	s := scenario(t)
	r, err := ConvergenceStudy(context.Background(), s, 60, 11, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Runs != 60 {
		t.Fatalf("runs = %d", r.Runs)
	}
	// The paper reports 98.6% convergence; require at least 90% here.
	if r.PctConverged < 90 {
		t.Fatalf("converged = %.1f%%", r.PctConverged)
	}
	// Removal events are rare (paper: 1.64 ± 1.27 per run).
	if r.MeanRemovals > 10 {
		t.Fatalf("mean removals = %v", r.MeanRemovals)
	}
	if r.MaxIterations > 2000 {
		t.Fatalf("max iterations = %d exceeded the 2000 cap", r.MaxIterations)
	}
}

func TestAccessLinkComparison(t *testing.T) {
	s := scenario(t)
	r, err := AccessLinkComparison(s, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Section V-C: matching the worst pair's accuracy by
	// sampling the access link alone costs substantially more capacity.
	if r.OverheadPct <= 20 {
		t.Fatalf("access-link overhead = %.0f%%, expected a large penalty", r.OverheadPct)
	}
	if r.AccessTheta <= r.Theta {
		t.Fatalf("access θ = %v not above optimal θ = %v", r.AccessTheta, r.Theta)
	}
	if r.DrivingPair != "JANET-LU" {
		t.Fatalf("driving pair = %s, want JANET-LU (the smallest OD pair)", r.DrivingPair)
	}
	if r.RequiredRho < 0.005 || r.RequiredRho > 0.03 {
		t.Fatalf("required rate = %v, want the paper's ≈1%% regime", r.RequiredRho)
	}
}

func TestRenderers(t *testing.T) {
	s := scenario(t)
	t1, err := Table1(s, 100000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := RenderTable1(&b, t1); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table I", "FR->LU", "JANET-NL", "accuracy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I output missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	if err := RenderFigure1(&b, Figure1(11)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 1") {
		t.Fatal("figure 1 render missing header")
	}
	b.Reset()
	pts, err := Figure2(context.Background(), s, []float64{50000}, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderFigure2(&b, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "opt wrst") {
		t.Fatal("figure 2 render missing columns")
	}
	b.Reset()
	conv, err := ConvergenceStudy(context.Background(), s, 5, 1, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderConvergence(&b, conv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Convergence study") {
		t.Fatal("convergence render missing header")
	}
	b.Reset()
	ac, err := AccessLinkComparison(s, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if err := RenderAccessComparison(&b, ac); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Access-link comparison") {
		t.Fatal("access render missing header")
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []string{"a", "b"}, [][]string{{"1", `x,"y`}, {"2", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,\"\"y\"\n2,z\n"
	if b.String() != want {
		t.Fatalf("CSV = %q, want %q", b.String(), want)
	}
	header, rows := Figure2CSV([]Figure2Point{{Theta: 100}})
	if len(header) != 7 || len(rows) != 1 {
		t.Fatalf("Figure2CSV shape: %d/%d", len(header), len(rows))
	}
}

func TestDynamicStudy(t *testing.T) {
	s := scenario(t)
	r, err := DynamicStudy(context.Background(), s, 12, 100000, 21, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 12 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Per interval the re-optimized plan dominates on the optimized
	// objective whenever the stale plan stays within budget (it is the
	// optimum of that interval's problem).
	for _, p := range r.Points {
		if p.StaticSpend <= 1+1e-9 && p.DynamicObj < p.StaticObj-1e-6 {
			t.Fatalf("interval %d: dynamic obj %v below static obj %v at spend %v",
				p.Interval, p.DynamicObj, p.StaticObj, p.StaticSpend)
		}
	}
	// The stale plan must drift off budget (the diurnal cycle swings
	// loads by >2x): under-spending strands capacity, over-spending
	// violates the resource cap the routers were provisioned for — the
	// operational failure mode the paper's re-optimization avoids. Any
	// interval where the stale plan "wins" on the objective must be one
	// where it overspends.
	drift := false
	for _, p := range r.Points {
		if math.Abs(p.StaticSpend-1) > 0.05 {
			drift = true
		}
		if p.StaticObj > p.DynamicObj+1e-6 && p.StaticSpend <= 1+1e-9 {
			t.Fatalf("interval %d: stale plan won within budget (%v vs %v at %vx)",
				p.Interval, p.StaticObj, p.DynamicObj, p.StaticSpend)
		}
	}
	if !drift {
		t.Fatal("static plan never drifted off budget (study too tame)")
	}
	// Re-optimization moves monitors over the run.
	if r.TotalChurn == 0 {
		t.Fatal("no monitor churn across failures and traffic shifts")
	}
	// The failure-affected intervals must exist and the scenario graph
	// must be restored afterwards (the study toggles a link down).
	failedSeen := false
	for _, p := range r.Points {
		failedSeen = failedSeen || p.Failed
	}
	if !failedSeen {
		t.Fatal("no failure interval")
	}
	for _, l := range s.Graph.Links() {
		if l.Down {
			t.Fatal("study left a link down")
		}
	}
	// Rendering works.
	var b strings.Builder
	if err := RenderDynamic(&b, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "link-down") || !strings.Contains(b.String(), "anomaly") {
		t.Fatalf("render missing events:\n%s", b.String())
	}
}

func TestDetectionStudy(t *testing.T) {
	s := scenario(t)
	r, err := DetectionStudy(context.Background(), s, 100000, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Solution.Stats.Converged {
		t.Fatal("detection solve did not converge")
	}
	if len(r.OptimalProb) != len(s.Pairs) {
		t.Fatalf("probs = %d", len(r.OptimalProb))
	}
	// Probabilities in [0, 1]; optimized beats uniform on the mean (it
	// maximizes the sum) — and the worst path should not be far worse.
	for k := range r.OptimalProb {
		if r.OptimalProb[k] < 0 || r.OptimalProb[k] > 1 {
			t.Fatalf("prob out of range: %v", r.OptimalProb[k])
		}
	}
	if r.MeanOptimal <= r.MeanUniform {
		t.Fatalf("optimized mean %v not above uniform %v", r.MeanOptimal, r.MeanUniform)
	}
	var b strings.Builder
	if err := RenderDetection(&b, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "max-min") {
		t.Fatal("render missing header")
	}
}

func TestDetectionStudyErrors(t *testing.T) {
	s := scenario(t)
	if _, err := DetectionStudy(context.Background(), s, 100000, 1, 0); err == nil {
		t.Fatal("event size 1 accepted")
	}
}

func TestDetectionStudyMaxMinLiftsWorst(t *testing.T) {
	s := scenario(t)
	r, err := DetectionStudy(context.Background(), s, 100000, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The max-min variant must lift the worst path above both the sum
	// objective's worst and (here) the uniform baseline's worst.
	if r.MinMaxMin <= r.MinOptimal {
		t.Fatalf("max-min worst %v not above sum worst %v", r.MinMaxMin, r.MinOptimal)
	}
	if r.MinMaxMin < r.MinUniform {
		t.Fatalf("max-min worst %v below uniform worst %v", r.MinMaxMin, r.MinUniform)
	}
}

func TestCSVExports(t *testing.T) {
	s := scenario(t)
	t1, err := Table1(s, 100000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	h, rows := Table1CSV(t1)
	if len(h) != 5 || len(rows) != len(t1.Links)+len(t1.Rows) {
		t.Fatalf("Table1CSV shape: %d/%d", len(h), len(rows))
	}
	var b strings.Builder
	if err := WriteCSV(&b, h, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "JANET-LU") {
		t.Fatal("CSV missing pair rows")
	}
}

func TestTMStudy(t *testing.T) {
	s := scenario(t)
	r, err := TMStudy(context.Background(), s, 100000, 20, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pairs) != 20 {
		t.Fatalf("pairs = %d", len(r.Pairs))
	}
	// The paper's claim: sampling beats aggregate-counter inference,
	// decisively so on the worst (small) pairs.
	if r.MeanSampled <= r.MeanTomo {
		t.Fatalf("sampled mean %v not above tomogravity %v", r.MeanSampled, r.MeanTomo)
	}
	if r.MinSampled <= r.MinTomo+0.2 {
		t.Fatalf("sampled worst %v not clearly above tomogravity worst %v", r.MinSampled, r.MinTomo)
	}
	// Tomogravity must improve on (or match) raw gravity on average —
	// it uses strictly more information.
	if r.MeanTomo < r.MeanGravity-0.05 {
		t.Fatalf("tomogravity %v worse than gravity %v", r.MeanTomo, r.MeanGravity)
	}
	var b strings.Builder
	if err := RenderTM(&b, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "tomogravity") {
		t.Fatal("render missing header")
	}
}

// TestTable1ShapeOnAbilene checks the paper's generality claim: the
// qualitative Table I properties hold on a very different backbone.
func TestTable1ShapeOnAbilene(t *testing.T) {
	s, err := geant.BuildAbilene(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Table1(s, 60000, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Solution.Stats.Converged {
		t.Fatal("Abilene solve did not converge")
	}
	if len(r.Links) == 0 {
		t.Fatal("no monitors activated")
	}
	if r.MaxMonitorsPerPair > 2 {
		t.Fatalf("a pair sampled on %d links", r.MaxMonitorsPerPair)
	}
	for _, row := range r.Rows {
		if row.Utility <= 0 {
			t.Fatalf("pair %s abandoned", row.Name)
		}
		if row.Accuracy < 0.8 {
			t.Fatalf("pair %s accuracy %v", row.Name, row.Accuracy)
		}
	}
}

// TestTable1ShapeAcrossSeeds: the headline structure is robust to the
// background-traffic realization, not an artifact of one seed.
func TestTable1ShapeAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{2, 3, 4} {
		s := geant.MustBuild(seed)
		r, err := Table1(s, 100000, 10, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !r.Solution.Stats.Converged {
			t.Fatalf("seed %d: did not converge", seed)
		}
		if r.MaxMonitorsPerPair > 2 {
			t.Fatalf("seed %d: pair sampled on %d links", seed, r.MaxMonitorsPerPair)
		}
		for _, row := range r.Rows {
			if row.Accuracy < 0.85 {
				t.Fatalf("seed %d: pair %s accuracy %v", seed, row.Name, row.Accuracy)
			}
		}
		for _, l := range r.Links {
			if l.Rate > 0.025 {
				t.Fatalf("seed %d: rate %v on %s too high", seed, l.Rate, l.Name)
			}
		}
	}
}

func TestWriteReport(t *testing.T) {
	cfg := DefaultReportConfig()
	cfg.Trials = 3
	var b strings.Builder
	err := WriteReport(&b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# netsamp evaluation report",
		"Table I", "Figure 2", "Convergence study",
		"Access-link", "tomogravity", "max-min", "Dynamic re-optimization",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestFigure2Extended(t *testing.T) {
	s := scenario(t)
	pts, err := Figure2Extended(context.Background(), s, []float64{50000, 200000}, 8, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		// The optimal dominates every baseline on worst-pair accuracy
		// (small statistical slack).
		for name, w := range map[string]float64{
			"uk":      p.UKOnly.Worst,
			"uniform": p.Uniform.Worst,
			"greedy":  p.Greedy.Worst,
		} {
			if p.Optimal.Worst < w-0.03 {
				t.Fatalf("θ=%v: optimal worst %v below %s %v", p.Theta, p.Optimal.Worst, name, w)
			}
		}
	}
	var b strings.Builder
	if err := RenderFigure2Extended(&b, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "greedy") {
		t.Fatal("render missing series")
	}
}
