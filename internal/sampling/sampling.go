// Package sampling simulates the packet-sampling process the optimizer
// configures and measures the accuracy the paper's evaluation reports.
//
// Each monitor samples packets i.i.d. with its link's probability p_i,
// independently of other monitors (paper Section III). For an OD pair
// whose path crosses monitored links i ∈ row, a packet is counted if it
// is sampled at least once, so the per-packet inclusion probability is
// the effective sampling rate ρ. The OD size estimator is X/ρ for X
// sampled packets, and the paper's reported metric is the absolute
// relative accuracy 1 − |X/ρ − S|/S averaged over repeated experiments
// (Section V-B runs 20 sampling experiments per configuration).
package sampling

import (
	"fmt"
	"math"

	"netsamp/internal/rng"
)

// Estimate renormalizes a sampled packet count by the effective rate:
// the unbiased size estimator X/ρ. It returns an error for ρ <= 0.
func Estimate(sampled int64, rho float64) (float64, error) {
	if rho <= 0 {
		return 0, fmt.Errorf("sampling: effective rate %v, want > 0", rho)
	}
	return float64(sampled) / rho, nil
}

// Accuracy returns 1 − |est − actual|/actual, the paper's accuracy
// metric, clamped below at 0 (an estimate more than 100% off carries no
// information). It panics if actual <= 0.
func Accuracy(est, actual float64) float64 {
	if actual <= 0 {
		panic("sampling: non-positive actual size")
	}
	a := 1 - math.Abs(est-actual)/actual
	if a < 0 {
		return 0
	}
	return a
}

// SampleOD simulates one sampling experiment for an OD pair of the given
// total size (packets in the interval): each packet is retained
// independently with probability rho, so the sampled count is
// Binomial(size, rho).
func SampleOD(size int64, rho float64, r *rng.Source) int64 {
	return r.Binomial(size, rho)
}

// Result summarizes repeated sampling experiments for one OD pair.
type Result struct {
	Name string
	// Actual is the true OD size (packets per interval).
	Actual int64
	// Rho is the effective sampling rate used for renormalization.
	Rho float64
	// MeanAccuracy and StdAccuracy aggregate 1−|X/ρ−S|/S over the trials.
	MeanAccuracy, StdAccuracy float64
	// MeanEstimate is the average renormalized size estimate.
	MeanEstimate float64
}

// Experiment runs trials independent sampling experiments for one OD
// pair and aggregates the accuracy statistics.
func Experiment(name string, size int64, rho float64, trials int, r *rng.Source) (Result, error) {
	if size <= 0 {
		return Result{}, fmt.Errorf("sampling: OD %q has size %d, want > 0", name, size)
	}
	if trials <= 0 {
		return Result{}, fmt.Errorf("sampling: %d trials, want > 0", trials)
	}
	if rho <= 0 {
		// An unmonitored OD pair: the estimator is undefined; report zero
		// accuracy, matching the utility convention M(0) = 0.
		return Result{Name: name, Actual: size, Rho: rho}, nil
	}
	res := Result{Name: name, Actual: size, Rho: rho}
	var sumAcc, sumAcc2, sumEst float64
	for i := 0; i < trials; i++ {
		x := SampleOD(size, rho, r)
		est, err := Estimate(x, rho)
		if err != nil {
			return Result{}, err
		}
		acc := Accuracy(est, float64(size))
		sumAcc += acc
		sumAcc2 += acc * acc
		sumEst += est
	}
	n := float64(trials)
	res.MeanAccuracy = sumAcc / n
	res.MeanEstimate = sumEst / n
	variance := sumAcc2/n - res.MeanAccuracy*res.MeanAccuracy
	if variance > 0 {
		res.StdAccuracy = math.Sqrt(variance)
	}
	return res, nil
}

// Summary aggregates per-pair accuracies the way the paper's Figure 2
// reports them: average, worst and best OD pair.
type Summary struct {
	Average, Worst, Best float64
}

// Summarize computes the Figure-2 aggregate over per-pair results.
func Summarize(results []Result) Summary {
	if len(results) == 0 {
		return Summary{}
	}
	s := Summary{Worst: math.Inf(1), Best: math.Inf(-1)}
	for _, r := range results {
		s.Average += r.MeanAccuracy
		s.Worst = math.Min(s.Worst, r.MeanAccuracy)
		s.Best = math.Max(s.Best, r.MeanAccuracy)
	}
	s.Average /= float64(len(results))
	return s
}
