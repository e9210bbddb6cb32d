package core

import (
	"math"
	"testing"
)

// must unwraps a known-good utility constructor inside a literal.
func must[U Utility](u U, err error) U {
	if err != nil {
		panic(err)
	}
	return u
}

// checkUtilityContract verifies the framework's requirements on [0, 1]:
// M(0)=0, strictly increasing, strictly concave, derivatives consistent
// with finite differences.
func checkUtilityContract(t *testing.T, name string, u Utility) {
	t.Helper()
	if got := u.Value(0); got != 0 {
		t.Fatalf("%s: M(0) = %v", name, got)
	}
	prev := 0.0
	for i := 1; i <= 1000; i++ {
		rho := float64(i) / 1000 * 0.999 // stay inside (0,1)
		v := u.Value(rho)
		d := u.Deriv(rho)
		if d < 1e-9 {
			// Floating-point saturation (e.g. (1-ρ)^m underflow for
			// large detection footprints): the mathematical function is
			// still strictly monotone, the doubles are not. Only require
			// non-decreasing here.
			if v < prev {
				t.Fatalf("%s: decreased at ρ=%v", name, rho)
			}
			prev = v
			continue
		}
		if v <= prev {
			t.Fatalf("%s: not strictly increasing at ρ=%v", name, rho)
		}
		prev = v
		if u.Curv(rho) >= 0 {
			t.Fatalf("%s: M'' >= 0 at ρ=%v", name, rho)
		}
	}
	for _, rho := range []float64{0.01, 0.1, 0.5, 0.9} {
		h := 1e-6
		fd := (u.Value(rho+h) - u.Value(rho-h)) / (2 * h)
		if d := u.Deriv(rho); math.Abs(fd-d)/math.Max(d, 1e-12) > 1e-3 {
			t.Fatalf("%s: Deriv(%v)=%v, finite diff %v", name, rho, d, fd)
		}
		fd2 := (u.Deriv(rho+h) - u.Deriv(rho-h)) / (2 * h)
		if cv := u.Curv(rho); math.Abs(fd2-cv)/math.Max(math.Abs(cv), 1e-12) > 1e-3 {
			t.Fatalf("%s: Curv(%v)=%v, finite diff %v", name, rho, cv, fd2)
		}
	}
}

func TestDetectionContract(t *testing.T) {
	for _, size := range []int{2, 10, 1000} {
		checkUtilityContract(t, "Detection", must(NewDetection(size)))
	}
}

func TestDetectionSemantics(t *testing.T) {
	u := must(NewDetection(100))
	// P(detect) of a 100-packet event at ρ=0.01 is 1-(0.99)^100 ≈ 0.634.
	if got := u.Value(0.01); math.Abs(got-(1-math.Pow(0.99, 100))) > 1e-12 {
		t.Fatalf("Value(0.01) = %v", got)
	}
	if u.Value(1) != 1 {
		t.Fatal("full sampling must detect with certainty")
	}
	// Bigger events are easier to detect.
	if must(NewDetection(1000)).Value(0.005) <= must(NewDetection(10)).Value(0.005) {
		t.Fatal("larger event not easier to detect")
	}
}

func TestDetectionValidation(t *testing.T) {
	for _, size := range []int{1, 0, -5} {
		if _, err := NewDetection(size); err == nil {
			t.Fatalf("NewDetection(%d) accepted", size)
		}
	}
}

func TestLogCoverageContract(t *testing.T) {
	for _, c := range []float64{0.001, 0.05, 1} {
		checkUtilityContract(t, "LogCoverage", must(NewLogCoverage(c)))
	}
}

func TestLogCoverageNormalization(t *testing.T) {
	u := must(NewLogCoverage(0.01))
	if got := u.Value(1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("M(1) = %v, want 1", got)
	}
}

func TestLogCoverageValidation(t *testing.T) {
	for _, c := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := NewLogCoverage(c); err == nil {
			t.Fatalf("NewLogCoverage(%v) accepted", c)
		}
	}
}

// TestSolveWithDetectionUtility runs the full solver under the
// anomaly-detection utility: the framework is utility-agnostic.
func TestSolveWithDetectionUtility(t *testing.T) {
	p := instance{
		Loads:  []float64{40000, 3000, 800},
		Budget: 60,
		Pairs: []pair{
			{Links: []int{0, 1}, Utility: must(NewDetection(500))},
			{Links: []int{1, 2}, Utility: must(NewDetection(200))},
			{Links: []int{2}, Utility: must(NewDetection(2000))},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Converged {
		t.Fatal("detection-utility solve did not converge")
	}
	feasibility(t, p, sol)
	kktCheck(t, p, sol)
	// The cheap lightly-loaded link must carry the highest rate.
	if !(sol.Rates[2] > sol.Rates[1] && sol.Rates[1] > sol.Rates[0]) {
		t.Fatalf("rates not ordered by cost: %v", sol.Rates)
	}
}

// TestSolveWithMixedUtilities mixes utility families in one task, e.g.
// tracking sizes of two pairs while watching a third for anomalies.
func TestSolveWithMixedUtilities(t *testing.T) {
	p := instance{
		Loads:  []float64{10000, 2000},
		Budget: 40,
		Pairs: []pair{
			{Links: []int{0}, Utility: MustSRE(0.0001)},
			{Links: []int{1}, Utility: must(NewDetection(300))},
			{Links: []int{0, 1}, Utility: must(NewLogCoverage(0.005))},
		},
	}.problem()
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	feasibility(t, p, sol)
	if sol.Stats.Converged {
		kktCheck(t, p, sol)
	}
	for k, rho := range sol.Rho {
		if rho <= 0 {
			t.Fatalf("pair %d unmonitored under mixed utilities", k)
		}
	}
}
