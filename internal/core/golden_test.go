package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"netsamp/internal/engine"
	"netsamp/internal/geant"
)

// Golden bits: FNV-64a over the IEEE-754 bit patterns of a solve's
// Rates, Rho and Lambda. Any change that reorders a float addition
// anywhere between the front doors and the Solution — not just one the
// solver's own cross-checks would catch, since those compare the code
// against itself — fails here. The exact-solve hashes of the additive
// models were re-recorded when the matrix-free Newton step replaced the
// dense one; each such row also holds its optimum to the objective and λ
// recorded before that change (matchesRecorded) and passes checkKKT. The
// Frank-Wolfe rows moved with them: the line search both paths share
// used to bisect on after its Newton iteration had converged.

func solutionBits(sol *Solution) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, v := range sol.Rates {
		put(v)
	}
	for _, v := range sol.Rho {
		put(v)
	}
	put(sol.Lambda)
	return h.Sum64()
}

// geantProblem is the paper's Table I instance: the JANET task on the
// GEANT candidate set at θ = 100000 packets per 5-minute interval, built
// by hand because plan.Build would be an import cycle from here.
func geantProblem(t *testing.T, model RateModel) *Problem {
	t.Helper()
	s, err := geant.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[int]int, len(s.MonitorLinks))
	in := instance{Budget: BudgetPerInterval(100000, 300), Model: model}
	for _, lid := range s.MonitorLinks {
		index[int(lid)] = len(in.Loads)
		in.Loads = append(in.Loads, s.Loads[lid])
	}
	inv := s.UtilityParams(300)
	for k := range s.Matrix.Pairs {
		var links []int
		for _, lid := range s.Matrix.Rows[k] {
			if i, ok := index[int(lid)]; ok {
				links = append(links, i)
			}
		}
		in.Pairs = append(in.Pairs, pair{Links: links, Utility: MustSRE(inv[k])})
	}
	return in.problem()
}

// goldenArch skips the golden tests where the compiler may fuse x*y+z
// into one rounding (arm64, ppc64, s390x): the hashes are amd64's.
func goldenArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

// The additive GEANT rows' optimum, recorded with a Tol 1e-10 polish
// while the dense Newton-KKT step still existed. The product model never
// reaches the Newton step, and its hash is the one recorded before the
// kernels were collapsed.
const geantObjective, geantLambda = 19.886525013356334, 0.0003425535530660135

func TestGoldenBitsGEANT(t *testing.T) {
	goldenArch(t)
	want := map[string]uint64{
		"linear":            0xfb84132202aa6285,
		"independent-exact": 0xaca8dac9ede0c8cb,
		"coordinated":       0xfb84132202aa6285, // same surrogate as linear
	}
	for _, m := range []RateModel{ModelLinear, ModelIndependentExact, ModelCoordinated} {
		p := geantProblem(t, m)
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := s.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Stats.Converged {
			t.Fatalf("%s: did not converge", m.Name())
		}
		if got := solutionBits(sol); got != want[m.Name()] {
			t.Errorf("%s: solution bits %#016x, want %#016x", m.Name(), got, want[m.Name()])
		}
		if m.Additive() {
			checkKKT(t, p, sol, 1e-6)
			matchesRecorded(t, s, sol, geantObjective, geantLambda)
		}
	}
}

// TestGoldenBitsScale: ECMP instances from the scale generator, solved
// serial, sharded and through the Frank-Wolfe path. The 300-link
// instance fits one shard chunk; the 1000-link one splits into several,
// where the sharded reduction groups additions differently from the
// serial sweep — different bits, but fixed ones, at any worker count.
func TestGoldenBitsScale(t *testing.T) {
	goldenArch(t)
	// maxIter 0 solves to convergence; the multi-chunk solves are cut
	// short (the bits of a truncated trajectory are just as fixed).
	type instance struct{ links, pairs, maxIter int }
	small, multi := instance{300, 2550, 0}, instance{1000, 9000, 24}
	for _, c := range []struct {
		name    string
		inst    instance
		workers int
		approx  bool
		want    uint64
	}{
		{"serial", small, 0, false, 0xd10e41a84127276c},
		{"sharded-2", small, 2, false, 0xd10e41a84127276c},
		{"sharded-5", small, 5, false, 0xd10e41a84127276c},
		{"approx", small, 0, true, 0x7bbda4e6ab21a435},
		{"multi-chunk/serial", multi, 0, false, 0x08ca866bd3a41829},
		{"multi-chunk/sharded-2", multi, 2, false, 0x9d6588a0bf2b868e},
		{"multi-chunk/sharded-5", multi, 5, false, 0x9d6588a0bf2b868e},
		{"multi-chunk/approx-sharded-2", multi, 2, true, 0x49e4816ff7efb346},
	} {
		cp := csrFromInstance(t, genInstance(t, c.inst.links, c.inst.pairs, 7, true), 0.1)
		sol := func() *Solution {
			s, err := NewSolver(cp)
			if err != nil {
				t.Fatal(err)
			}
			if c.workers > 0 {
				pool := engine.NewPool(c.workers)
				defer pool.Close()
				s.Shard(pool)
			}
			var sol *Solution
			if c.approx {
				sol, err = s.SolveApprox(ApproxOptions{MaxIter: 60})
			} else {
				sol, err = s.Solve(Options{MaxIter: c.inst.maxIter})
			}
			if err != nil {
				t.Fatal(err)
			}
			if !c.approx && c.inst == small {
				// The 300-link optimum, recorded with a Tol 1e-10 polish
				// while the dense Newton-KKT step still existed.
				matchesRecorded(t, s, sol, 2555.1980998602935, 4.1878073641164492e-06)
			}
			return sol
		}()
		if got := solutionBits(sol); got != c.want {
			t.Errorf("%s: solution bits %#016x, want %#016x", c.name, got, c.want)
		}
		if !c.approx && sol.Stats.Converged {
			checkKKT(t, cp, sol, 1e-6)
		}
	}
}

// TestScaleOptimumMatchesRecorded solves the multi-chunk instance to
// convergence (the golden rows above cut it at 24 iterations): the
// optimum must be the one recorded before the CG solve was truncated and
// preconditioned, and must pass the independent KKT check.
func TestScaleOptimumMatchesRecorded(t *testing.T) {
	cp := csrFromInstance(t, genInstance(t, 1000, 9000, 7, true), 0.1)
	s, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Stats.Converged {
		t.Fatalf("did not converge in %d iterations", sol.Stats.Iterations)
	}
	checkKKT(t, cp, sol, 1e-6)
	matchesRecorded(t, s, sol, 8996.7056709776789, 8.6491280977876954e-06)
}
