package sampling

import (
	"math"
	"testing"

	"netsamp/internal/rng"
)

func TestEstimate(t *testing.T) {
	est, err := Estimate(50, 0.01)
	if err != nil || est != 5000 {
		t.Fatalf("Estimate = %v, %v", est, err)
	}
	if _, err := Estimate(50, 0); err == nil {
		t.Fatal("Estimate with ρ=0 accepted")
	}
}

func TestEstimatorUnbiased(t *testing.T) {
	// E[X/ρ] = S: the mean estimate over many trials must approach the
	// actual size.
	r := rng.New(9)
	const size, rho, trials = 200000, 0.005, 2000
	sum := 0.0
	for i := 0; i < trials; i++ {
		est, err := Estimate(SampleOD(size, rho, r), rho)
		if err != nil {
			t.Fatal(err)
		}
		sum += est
	}
	mean := sum / trials
	if math.Abs(mean-size)/size > 0.01 {
		t.Fatalf("mean estimate = %v, want ≈%v", mean, size)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy(90, 100); math.Abs(got-0.9) > 1e-15 {
		t.Fatalf("Accuracy = %v", got)
	}
	if got := Accuracy(110, 100); math.Abs(got-0.9) > 1e-15 {
		t.Fatalf("Accuracy over = %v", got)
	}
	if got := Accuracy(100, 100); got != 1 {
		t.Fatalf("perfect accuracy = %v", got)
	}
	if got := Accuracy(500, 100); got != 0 {
		t.Fatalf("clamped accuracy = %v", got)
	}
}

func TestAccuracyPanicsOnBadActual(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Accuracy(1, 0)
}

func TestExperimentStatistics(t *testing.T) {
	r := rng.New(10)
	res, err := Experiment("od", 1_000_000, 0.01, 50, r)
	if err != nil {
		t.Fatal(err)
	}
	// ρS = 10000 sampled packets: relative error ~1/√(ρS) = 1%, so the
	// mean accuracy should be around 0.99.
	if res.MeanAccuracy < 0.98 || res.MeanAccuracy > 1 {
		t.Fatalf("MeanAccuracy = %v", res.MeanAccuracy)
	}
	if res.StdAccuracy < 0 || res.StdAccuracy > 0.05 {
		t.Fatalf("StdAccuracy = %v", res.StdAccuracy)
	}
	if math.Abs(res.MeanEstimate-1_000_000)/1_000_000 > 0.01 {
		t.Fatalf("MeanEstimate = %v", res.MeanEstimate)
	}
}

func TestExperimentHigherRateMoreAccurate(t *testing.T) {
	r := rng.New(11)
	lo, err := Experiment("od", 100000, 0.001, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Experiment("od", 100000, 0.05, 200, r)
	if err != nil {
		t.Fatal(err)
	}
	if hi.MeanAccuracy <= lo.MeanAccuracy {
		t.Fatalf("accuracy not increasing in ρ: %v vs %v", lo.MeanAccuracy, hi.MeanAccuracy)
	}
}

func TestExperimentUnmonitored(t *testing.T) {
	r := rng.New(12)
	res, err := Experiment("od", 1000, 0, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanAccuracy != 0 {
		t.Fatalf("unmonitored accuracy = %v", res.MeanAccuracy)
	}
}

func TestExperimentErrors(t *testing.T) {
	r := rng.New(13)
	if _, err := Experiment("od", 0, 0.1, 10, r); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := Experiment("od", 10, 0.1, 0, r); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]Result{
		{MeanAccuracy: 0.9},
		{MeanAccuracy: 0.5},
		{MeanAccuracy: 1.0},
	})
	if math.Abs(s.Average-0.8) > 1e-12 || s.Worst != 0.5 || s.Best != 1.0 {
		t.Fatalf("Summary = %+v", s)
	}
	empty := Summarize(nil)
	if empty.Average != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

// TestAccuracyMatchesUtilityPrediction ties the simulator back to the
// utility model: the measured mean squared relative error must match
// E[SRE](ρ) = (1-ρ)/ρ·(1/S) for fixed-size flows.
func TestAccuracyMatchesUtilityPrediction(t *testing.T) {
	r := rng.New(14)
	const size, rho, trials = 50000, 0.004, 5000
	sumSRE := 0.0
	for i := 0; i < trials; i++ {
		est, err := Estimate(SampleOD(size, rho, r), rho)
		if err != nil {
			t.Fatal(err)
		}
		rel := (est - size) / size
		sumSRE += rel * rel
	}
	got := sumSRE / trials
	want := (1 - rho) / rho * (1.0 / size)
	if math.Abs(got-want)/want > 0.08 {
		t.Fatalf("measured E[SRE] = %v, model %v", got, want)
	}
}
