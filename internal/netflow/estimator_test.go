package netflow

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// eagerBin is the estimator's output as it was before estimates were
// computed on read: three slices filled by one loop per Estimates call.
type eagerBin struct {
	Estimate      []float64
	RelStdErr     []float64
	LowConfidence []bool
}

// eagerReference is the parent commit's Estimates loop, kept verbatim as
// the reference the on-read methods must reproduce bit for bit. rho is
// already clamped, as NewEstimator stores it.
func eagerReference(rho []float64, loss float64, counts []uint64) eagerBin {
	be := eagerBin{
		Estimate:      make([]float64, len(counts)),
		RelStdErr:     make([]float64, len(counts)),
		LowConfidence: make([]bool, len(counts)),
	}
	for k, c := range counts {
		effRho := rho[k] * (1 - loss)
		if effRho <= 0 {
			be.RelStdErr[k] = math.Inf(1)
			be.LowConfidence[k] = true
			continue
		}
		be.Estimate[k] = float64(c) / effRho
		if c == 0 {
			be.RelStdErr[k] = math.Inf(1)
		} else {
			be.RelStdErr[k] = math.Sqrt((1 - effRho) / float64(c))
		}
		be.LowConfidence[k] = be.RelStdErr[k] > LowConfidenceRelErr
	}
	return be
}

// TestEstimatesMatchEagerReference: Estimate, RelStdErr and
// LowConfidence are bit-equal to the eager loop across the edge cases —
// ρ = 0, ρ > 1 (clamped), a census ρ = 1, c = 0 — with and without
// transport loss.
func TestEstimatesMatchEagerReference(t *testing.T) {
	rho := []float64{0, 1.7, 1, 0.3, 1e-4, 0.05, 0.999, 0.5}
	counts := [][]uint64{
		{0, 0, 0, 0, 0, 0, 0, 0},
		{5, 50, 7, 1, 1, 3, 12345, 2},
		{0, 1, 0, 9, 0, 400, 1, 1 << 40},
	}
	for _, loss := range []float64{0, 0.3} {
		est, err := NewEstimator(300, rho)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if err := est.AddCounts(uint32(300*i), c); err != nil {
				t.Fatal(err)
			}
		}
		if err := est.SetTransportLoss(loss); err != nil {
			t.Fatal(err)
		}
		clamped := make([]float64, len(rho))
		for k, r := range rho {
			clamped[k] = math.Min(r, 1)
		}
		bins := est.Estimates()
		if len(bins) != len(counts) {
			t.Fatalf("loss %v: %d bins, want %d", loss, len(bins), len(counts))
		}
		for i, bin := range bins {
			want := eagerReference(clamped, loss, counts[i])
			for k := range rho {
				if g, w := math.Float64bits(bin.Estimate(k)), math.Float64bits(want.Estimate[k]); g != w {
					t.Errorf("loss %v bin %d pair %d: Estimate bits %#x, want %#x", loss, i, k, g, w)
				}
				if g, w := math.Float64bits(bin.RelStdErr(k)), math.Float64bits(want.RelStdErr[k]); g != w {
					t.Errorf("loss %v bin %d pair %d: RelStdErr bits %#x, want %#x", loss, i, k, g, w)
				}
				if g, w := bin.LowConfidence(k), want.LowConfidence[k]; g != w {
					t.Errorf("loss %v bin %d pair %d: LowConfidence %v, want %v", loss, i, k, g, w)
				}
			}
		}
	}
}

// TestEstimatesAreFrozen: a result returned earlier never changes —
// neither its counts under a later AddCounts to the same bin nor its
// estimates under a later SetTransportLoss — while a fresh call sees
// both.
func TestEstimatesAreFrozen(t *testing.T) {
	est, err := NewEstimator(300, []float64{0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if err := est.AddCounts(0, []uint64{10, 4}); err != nil {
		t.Fatal(err)
	}
	if err := est.AddCounts(300, []uint64{1, 1}); err != nil {
		t.Fatal(err)
	}
	before := est.Estimates()
	sampled := [][]uint64{slices.Clone(before[0].Sampled), slices.Clone(before[1].Sampled)}
	estimate := before[0].Estimate(0)

	// Write into both lent bins twice (the first write copies, the second
	// writes that copy), add a bin after them, and move ℓ.
	for range 2 {
		if err := est.AddCounts(0, []uint64{100, 100}); err != nil {
			t.Fatal(err)
		}
		if err := est.AddCounts(300, []uint64{100, 100}); err != nil {
			t.Fatal(err)
		}
	}
	if err := est.AddCounts(900, []uint64{3, 3}); err != nil {
		t.Fatal(err)
	}
	if err := est.SetTransportLoss(0.5); err != nil {
		t.Fatal(err)
	}
	for i := range sampled {
		if !slices.Equal(before[i].Sampled, sampled[i]) {
			t.Fatalf("bin %d: lent counts changed to %v, want %v", i, before[i].Sampled, sampled[i])
		}
	}
	if got := before[0].Estimate(0); got != estimate {
		t.Fatalf("earlier estimate moved with the loss: %v, want %v", got, estimate)
	}

	after := est.Estimates()
	if len(after) != 3 || after[2].Start != 900 {
		t.Fatalf("bins after = %+v", after)
	}
	if got := after[0].Sampled; got[0] != 210 || got[1] != 204 {
		t.Fatalf("merged counts = %v, want [210 204]", got)
	}
	if got := after[0].Estimate(0); got != 840 {
		t.Fatalf("estimate = %v, want 210/(0.5·0.5) = 840", got)
	}
	// A bin lent by the second call is copied again on its next write.
	if err := est.AddCounts(0, []uint64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if got := after[0].Sampled; got[0] != 210 || got[1] != 204 {
		t.Fatalf("second lend: counts changed to %v", got)
	}
}

// TestEstimatesConcurrentWithAddCounts runs readers of every lent slice
// against writers into the same bins. Under -race any write to a slice
// already handed out is reported.
func TestEstimatesConcurrentWithAddCounts(t *testing.T) {
	const pairs, bins, rounds = 8, 6, 200
	rho := make([]float64, pairs)
	for k := range rho {
		rho[k] = 0.1
	}
	est, err := NewEstimator(300, rho)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]uint64, pairs)
	for k := range ones {
		ones[k] = 1
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if err := est.AddCounts(uint32(300*(r%bins)), ones); err != nil {
				t.Error(err)
				return
			}
			if err := est.SetTransportLoss(float64(r%10) / 20); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for range 2 {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, b := range est.Estimates() {
					var sum uint64
					for k := range b.Sampled {
						sum += b.Sampled[k]
						_ = b.Estimate(k) + b.RelStdErr(k)
					}
					// Every AddCounts adds 1 to each pair of one bin, so a
					// consistent bin has equal counts across pairs.
					if sum != uint64(pairs)*b.Sampled[0] {
						t.Errorf("bin %d: torn counts %v", b.Start, b.Sampled)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	var total uint64
	for _, b := range est.Estimates() {
		total += b.Sampled[0]
	}
	if total != rounds {
		t.Fatalf("merged %d rounds, want %d", total, rounds)
	}
}

// filledEstimator is a week of 5-minute bins (or any shape) with
// nonzero counts in every bin.
func filledEstimator(tb testing.TB, bins, pairs int) *Estimator {
	tb.Helper()
	rho := make([]float64, pairs)
	counts := make([]uint64, pairs)
	for k := range rho {
		rho[k] = 0.01 * float64(k%7+1)
		counts[k] = uint64(k + 1)
	}
	est, err := NewEstimator(300, rho)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < bins; i++ {
		if err := est.AddCounts(uint32(300*i), counts); err != nil {
			tb.Fatal(err)
		}
	}
	return est
}

// TestEstimatesAllocs pins Estimates at one allocation per call however
// many bins are retained.
func TestEstimatesAllocs(t *testing.T) {
	est := filledEstimator(t, 2016, 20)
	if n := testing.AllocsPerRun(20, func() { est.Estimates() }); n > 1 {
		t.Fatalf("Estimates allocates %v times per call over 2016 bins, want ≤ 1", n)
	}
}

// BenchmarkEstimates: a week of GEANT bins (2016 × 20 pairs) and a short
// run on a large pair set (25 × 2550).
func BenchmarkEstimates(b *testing.B) {
	for _, shape := range []struct{ bins, pairs int }{{2016, 20}, {25, 2550}} {
		b.Run(fmt.Sprintf("bins=%d/pairs=%d", shape.bins, shape.pairs), func(b *testing.B) {
			est := filledEstimator(b, shape.bins, shape.pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.Estimates()
			}
		})
	}
}
