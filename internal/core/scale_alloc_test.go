package core

import (
	"testing"

	"netsamp/internal/engine"
)

// Zero-alloc pins for the scale tier: the CSR front door, the Newton-CG
// step on a large free set, the sharded kernels, and the Frank-Wolfe
// approximation must all keep SolveInto/SolveApproxInto
// at 0 allocs/op in steady state — at one solve per 5-minute interval
// for years, allocator traffic is drift the daemon cannot afford.

// scaleAllocProblem exceeds 512 links (a large Newton-CG free set) and
// one shard chunk (forcing real multi-chunk dispatch when sharded).
func scaleAllocProblem(t testing.TB) *Problem {
	t.Helper()
	links, pairs := 1000, 6000
	if raceTest {
		links, pairs = 600, 5000
	}
	inst := genInstance(t, links, pairs, 3, true)
	return csrFromInstance(t, inst, 0.05)
}

func pinZeroAllocs(t *testing.T, name string, run func() error) {
	t.Helper()
	if err := run(); err != nil { // warm the reused slices
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%s allocates %v objects/op in steady state, want 0", name, allocs)
	}
}

func TestScaleSolveIntoZeroAllocs(t *testing.T) {
	cp := scaleAllocProblem(t)
	s, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLinks() <= 512 {
		t.Fatalf("problem too small for a large free set: n = %d", s.NumLinks())
	}
	var sol Solution
	opt := Options{MaxIter: shardIters(12)}
	pinZeroAllocs(t, "CSR SolveInto (Newton-CG)", func() error {
		return s.SolveInto(&sol, opt)
	})
}

func TestScaleSolveApproxIntoZeroAllocs(t *testing.T) {
	cp := scaleAllocProblem(t)
	s, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	var sol Solution
	opt := ApproxOptions{MaxIter: shardIters(40)}
	pinZeroAllocs(t, "SolveApproxInto", func() error {
		return s.SolveApproxInto(&sol, opt)
	})
}

func TestShardedSolveIntoZeroAllocs(t *testing.T) {
	cp := scaleAllocProblem(t)
	s, err := NewSolver(cp)
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.NewPool(4)
	defer pool.Close()
	s.Shard(pool) // buffers allocated here, off the hot path
	var sol Solution
	opt := Options{MaxIter: shardIters(12)}
	pinZeroAllocs(t, "sharded SolveInto", func() error {
		return s.SolveInto(&sol, opt)
	})
	aopt := ApproxOptions{MaxIter: shardIters(40)}
	pinZeroAllocs(t, "sharded SolveApproxInto", func() error {
		return s.SolveApproxInto(&sol, aopt)
	})
}
