package core

import (
	"math"
	"testing"

	"netsamp/internal/engine"
)

// The sharding determinism contract: bit-identical results at ANY worker
// count (the chunk partition and reduction order never depend on it),
// and agreement with the serial kernels to rounding.

// shardProblem is sized to split into several chunks (> shardChunkPairs
// pairs) so the tests exercise real multi-chunk reductions. Under the
// race detector the instance shrinks (but stays multi-chunk): the
// contract is the same, the instrumentation overhead is not.
func shardProblem(t testing.TB) *Problem {
	t.Helper()
	links, pairs := 1000, 9000
	if raceTest {
		links, pairs = 600, 8500
	}
	inst := genInstance(t, links, pairs, 21, true)
	return csrFromInstance(t, inst, 0.08)
}

func shardIters(full int) int {
	if raceTest {
		return full / 4
	}
	return full
}

func solveSharded(t testing.TB, cp *Problem, workers int, approx bool) *Solution {
	t.Helper()
	s, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	if workers > 0 {
		pool := engine.NewPool(workers)
		defer pool.Close()
		s.Shard(pool)
		if s.sh.pool == nil {
			t.Fatal("Shard did not attach")
		}
		defer s.Shard(nil)
	}
	var sol *Solution
	if approx {
		sol, err = s.SolveApprox(ApproxOptions{MaxIter: shardIters(80)})
	} else {
		sol, err = s.Solve(Options{MaxIter: shardIters(24)})
	}
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestShardedBitIdenticalAcrossWorkerCounts(t *testing.T) {
	cp := shardProblem(t)
	for _, approx := range []bool{false, true} {
		base := solveSharded(t, cp, 1, approx)
		for _, workers := range []int{2, 4, 8} {
			sol := solveSharded(t, cp, workers, approx)
			if sol.Objective != base.Objective {
				t.Fatalf("approx=%v workers=%d: objective %v != single-worker %v",
					approx, workers, sol.Objective, base.Objective)
			}
			for i := range sol.Rates {
				if sol.Rates[i] != base.Rates[i] {
					t.Fatalf("approx=%v workers=%d: rate[%d] %v != single-worker %v",
						approx, workers, i, sol.Rates[i], base.Rates[i])
				}
			}
			for k := range sol.Rho {
				if sol.Rho[k] != base.Rho[k] {
					t.Fatalf("approx=%v workers=%d: rho[%d] differs from single-worker",
						approx, workers, k)
				}
			}
			if sol.GapBound != base.GapBound {
				t.Fatalf("approx=%v workers=%d: gap %v != single-worker %v",
					approx, workers, sol.GapBound, base.GapBound)
			}
		}
	}
}

// TestShardedKernelsMatchSerialToRounding: the sharded reduction groups
// additions differently from the serial sweep, so agreement is to
// floating-point rounding, not bitwise. Comparing single kernel sweeps
// (not whole truncated solves, where early rounding flips line-search
// decisions) pins the real contract: a chunking bug — wrong bounds,
// missed pairs, a double-counted chunk — shows up far above 1e-12.
func TestShardedKernelsMatchSerialToRounding(t *testing.T) {
	cp := shardProblem(t)
	s, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	n, nPairs := s.n, s.nPairs
	rates := make([]float64, n)
	dir := make([]float64, n)
	for i := 0; i < n; i++ {
		rates[i] = 0.3 + 0.4*float64(i%7)/7
		dir[i] = 0.01 * float64(i%5-2)
	}
	for i := range s.freePos {
		s.freePos[i] = int32(i) // all free, so hessMul zeroes nothing
	}

	gSerial := make([]float64, n)
	s.gradient(rates, gSerial)
	d1S, d2S := s.lineDerivs(rates, dir, 0.5)
	s.curvFill(rates)
	hSerial := make([]float64, n)
	s.hessMulInto(dir, hSerial)
	diagSerial := make([]float64, n)
	s.hessDiagInto(diagSerial)
	curvSerial := append([]float64(nil), s.curv...)

	pool := engine.NewPool(4)
	defer pool.Close()
	s.Shard(pool)
	gShard := make([]float64, n)
	s.gradient(rates, gShard)
	d1P, d2P := s.lineDerivs(rates, dir, 0.5)
	s.curvFill(rates)
	hShard := make([]float64, n)
	s.hessMulInto(dir, hShard)
	diagShard := make([]float64, n)
	s.hessDiagInto(diagShard)

	relClose := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	}
	for i := 0; i < n; i++ {
		if !relClose(gSerial[i], gShard[i]) {
			t.Fatalf("gradient[%d]: serial %v, sharded %v", i, gSerial[i], gShard[i])
		}
		if !relClose(hSerial[i], hShard[i]) {
			t.Fatalf("hessMul[%d]: serial %v, sharded %v", i, hSerial[i], hShard[i])
		}
		if !relClose(diagSerial[i], diagShard[i]) {
			t.Fatalf("hessDiag[%d]: serial %v, sharded %v", i, diagSerial[i], diagShard[i])
		}
	}
	if !relClose(d1S, d1P) || !relClose(d2S, d2P) {
		t.Fatalf("lineDerivs: serial (%v, %v), sharded (%v, %v)", d1S, d2S, d1P, d2P)
	}
	// Curvatures are written per pair with no cross-chunk reduction, so
	// they are bitwise.
	for k := 0; k < nPairs; k++ {
		if s.curv[k] != curvSerial[k] {
			t.Fatalf("curv[%d]: serial %v, sharded %v", k, curvSerial[k], s.curv[k])
		}
	}
}

func TestShardDetachRestoresSerial(t *testing.T) {
	cp := shardProblem(t)
	plain := solveSharded(t, cp, 0, false)

	s, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.NewPool(2)
	defer pool.Close()
	s.Shard(pool)
	if _, err := s.Solve(Options{MaxIter: shardIters(24)}); err != nil {
		t.Fatal(err)
	}
	s.Shard(nil)
	if s.sh.pool != nil {
		t.Fatal("pool still attached after detach")
	}
	sol, err := s.Solve(Options{MaxIter: shardIters(24)})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != plain.Objective {
		t.Fatalf("post-detach objective %v != never-sharded %v", sol.Objective, plain.Objective)
	}
	for i := range sol.Rates {
		if sol.Rates[i] != plain.Rates[i] {
			t.Fatalf("post-detach rate[%d] differs from never-sharded solve", i)
		}
	}
}

func TestShardSmallProblemSingleChunk(t *testing.T) {
	// Fewer pairs than one chunk: sharding must still work (one chunk,
	// trivial reduction) and stay bit-identical to serial — the partition
	// depends only on the pair count.
	p := instance{
		Loads:  []float64{1000, 2000, 1500},
		Budget: 800,
		Pairs: []pair{
			{Links: []int{0, 1}, Utility: MustSRE(0.01)},
			{Links: []int{1, 2}, Utility: MustSRE(0.02)},
			{Links: []int{0, 2}, Utility: MustSRE(0.005)},
		},
	}.problem()
	s1, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := s1.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.NewPool(4)
	defer pool.Close()
	s2.Shard(pool)
	sharded, err := s2.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A single chunk reduces in the same order as the serial sweep, so
	// even serial-vs-sharded is bitwise here.
	if serial.Objective != sharded.Objective {
		t.Fatalf("single-chunk sharded objective %v != serial %v", sharded.Objective, serial.Objective)
	}
	for i := range serial.Rates {
		if serial.Rates[i] != sharded.Rates[i] {
			t.Fatalf("single-chunk sharded rate[%d] differs from serial", i)
		}
	}
}
