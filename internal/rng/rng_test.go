package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between distinct seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between parent and child streams", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) produced only %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBernoulliEdges(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(7)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate = %v", rate)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(8)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exponential(2) mean = %v, want 0.5", mean)
	}
}

func TestParetoSupport(t *testing.T) {
	r := New(10)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(3, 1.5)
		if v < 3 {
			t.Fatalf("Pareto(3, 1.5) = %v < xm", v)
		}
	}
}

func TestParetoMean(t *testing.T) {
	// Mean of Pareto(xm, alpha) is alpha*xm/(alpha-1) for alpha > 1.
	r := New(11)
	const n = 500000
	xm, alpha := 1.0, 3.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Pareto(xm, alpha)
	}
	mean := sum / n
	want := alpha * xm / (alpha - 1)
	if math.Abs(mean-want)/want > 0.02 {
		t.Fatalf("Pareto mean = %v, want %v", mean, want)
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(14)
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Fatalf("Binomial(0, .5) = %d", v)
	}
	if v := r.Binomial(10, 0); v != 0 {
		t.Fatalf("Binomial(10, 0) = %d", v)
	}
	if v := r.Binomial(10, 1); v != 10 {
		t.Fatalf("Binomial(10, 1) = %d", v)
	}
}

func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n int64
		p float64
	}{
		{100, 0.01},     // geometric-skip regime
		{5000, 0.05},    // geometric-skip regime
		{1000000, 0.01}, // normal-approximation regime
		{50, 0.9},       // complement recursion
	}
	for _, c := range cases {
		r := New(15)
		const trials = 50000
		var sum, sumsq float64
		for i := 0; i < trials; i++ {
			v := float64(r.Binomial(c.n, c.p))
			if v < 0 || v > float64(c.n) {
				t.Fatalf("Binomial(%d,%v) out of range: %v", c.n, c.p, v)
			}
			sum += v
			sumsq += v * v
		}
		mean := sum / trials
		variance := sumsq/trials - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := wantMean * (1 - c.p)
		if math.Abs(mean-wantMean)/wantMean > 0.03 {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, mean, wantMean)
		}
		if math.Abs(variance-wantVar)/wantVar > 0.1 {
			t.Errorf("Binomial(%d,%v) variance = %v, want %v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(16)
	err := quick.Check(func(raw uint8) bool {
		n := int(raw%50) + 1
		p := r.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkBinomialSmall(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(1000, 0.01)
	}
}

func BenchmarkBinomialLarge(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Binomial(10_000_000, 0.01)
	}
}

// TestSplitSeedOrderIndependence: SplitSeed is a pure function of
// (master, index) — the property the engine's worker-count determinism
// rests on — and adjacent indices must not collide or correlate with
// the sequential Split() stream.
func TestSplitSeedOrderIndependence(t *testing.T) {
	const master = 0xfeedface
	want := make([]uint64, 64)
	for i := range want {
		want[i] = SplitSeed(master, uint64(i))
	}
	// Recompute in reverse: identical values.
	for i := len(want) - 1; i >= 0; i-- {
		if got := SplitSeed(master, uint64(i)); got != want[i] {
			t.Fatalf("SplitSeed(%d) not pure: %x vs %x", i, got, want[i])
		}
	}
	seen := make(map[uint64]int, len(want))
	for i, s := range want {
		if j, dup := seen[s]; dup {
			t.Fatalf("seed collision between indices %d and %d", i, j)
		}
		seen[s] = i
	}
	// First draws of adjacent streams should look independent.
	a := New(SplitSeed(master, 0)).Float64()
	b := New(SplitSeed(master, 1)).Float64()
	if a == b {
		t.Fatal("adjacent split streams start identically")
	}
}
