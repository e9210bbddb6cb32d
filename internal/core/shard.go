package core

// Sharded pair sweeps. Every hot sweep of the solver — gradient,
// line-search derivatives, Hessian curvature and products, solution
// assembly — is a reduction over the CSR pair rows. At 10⁶ pairs one
// core is the bottleneck, so a Solver can attach a persistent worker
// pool (engine.Pool via the ForPool interface) and fan each sweep out
// over pair chunks. This file holds only the fan-out: each sweep's
// entry point and its one range body live with the kernel
// (workspace.go, newtoncg.go); shardChunk runs that body per chunk.
//
// Determinism contract: results are bit-identical at ANY worker count,
// including 1. The chunk partition is a pure function of the problem
// shape (never of the worker count), every chunk accumulates into its
// own partial buffer in ascending pair order, and the cross-chunk
// reduction runs sequentially in ascending chunk order on the
// dispatching goroutine. Worker scheduling therefore affects wall-clock
// only. (The sharded sum groups additions differently from the serial
// kernel, so sharded-vs-unsharded agreement is to rounding, not bitwise;
// tests pin both properties.)
//
// Dispatch is allocation-free: the chunk closure is created once in
// Shard, arguments travel through solver-owned fields, and the pool's
// For loop sends plain ints.

// ForPool is the worker-pool surface the sharded kernels need.
// engine.Pool satisfies it; core deliberately does not import engine.
type ForPool interface {
	// Workers reports the pool size (informational).
	Workers() int
	// For runs fn(i) for every i in [0, n), possibly concurrently, and
	// returns when all calls completed.
	For(n int, fn func(int))
}

// shardChunkPairs is the target pairs-per-chunk. Small enough that mid-
// size problems split into several chunks (load balance, and the tests
// exercise real multi-chunk reductions), large enough that per-chunk
// dispatch overhead stays negligible.
const shardChunkPairs = 4096

// shardMaxChunks caps the chunk count: the cross-chunk reduction costs
// O(nChunks·n), which must stay well below the O(nnz) sweep it reduces.
const shardMaxChunks = 64

// Task opcodes for the chunk worker.
const (
	shardTaskGrad = iota
	shardTaskLine
	shardTaskCurv
	shardTaskHess
	shardTaskDiag
	shardTaskFinish
)

type shardState struct {
	pool    ForPool
	nChunks int
	chunkSz int
	// runChunk is the single closure handed to pool.For, created once in
	// Shard so dispatch never allocates.
	runChunk func(int)
	// partials holds one n-wide accumulator row per chunk (gradient,
	// Hessian-product and Hessian-diagonal tasks); pd1/pd2 hold per-chunk
	// scalar partials.
	partials []float64
	pd1, pd2 []float64
	// Per-dispatch arguments.
	task            int
	vecA, vecB      []float64
	t               float64
	rhoOut, utilOut []float64
}

// Shard attaches a worker pool to the solver's pair-loop kernels; nil
// detaches and restores the serial kernels. The chunk partition depends
// only on the compiled pair count, so two solvers of the same problem
// produce bit-identical results regardless of their pools' worker
// counts. Shard allocates the chunk buffers; call it at setup time, not
// between solves on the hot path.
func (s *Solver) Shard(pool ForPool) {
	if pool == nil {
		s.sh = shardState{}
		return
	}
	nChunks := (s.nPairs + shardChunkPairs - 1) / shardChunkPairs
	if nChunks > shardMaxChunks {
		nChunks = shardMaxChunks
	}
	if nChunks < 1 {
		nChunks = 1
	}
	s.sh.nChunks = nChunks
	s.sh.chunkSz = (s.nPairs + nChunks - 1) / nChunks
	if len(s.sh.partials) < nChunks*s.n {
		s.sh.partials = make([]float64, nChunks*s.n)
		s.sh.pd1 = make([]float64, nChunks)
		s.sh.pd2 = make([]float64, nChunks)
	}
	s.sh.runChunk = s.shardChunk
	s.sh.pool = pool
}

// shardChunk executes one chunk of the current task. Chunks own disjoint
// pair ranges and disjoint output slots, so chunk bodies never touch
// shared state; the pool's completion barrier publishes their writes
// back to the dispatcher.
func (s *Solver) shardChunk(c int) {
	kLo := c * s.sh.chunkSz
	kHi := kLo + s.sh.chunkSz
	if kHi > s.nPairs {
		kHi = s.nPairs
	}
	if kLo > kHi {
		kLo = kHi
	}
	switch s.sh.task {
	case shardTaskGrad:
		s.gradRange(kLo, kHi, s.sh.vecA, s.zeroPartial(c))
	case shardTaskLine:
		s.sh.pd1[c], s.sh.pd2[c] = s.lineRange(kLo, kHi, s.sh.vecA, s.sh.vecB, s.sh.t)
	case shardTaskCurv:
		s.curvRange(kLo, kHi, s.sh.vecA)
	case shardTaskHess:
		s.hessMulRange(kLo, kHi, s.sh.vecB, s.zeroPartial(c))
	case shardTaskDiag:
		s.hessDiagRange(kLo, kHi, s.zeroPartial(c))
	case shardTaskFinish:
		s.sh.pd1[c] = s.finishRange(kLo, kHi, s.sh.vecA, s.sh.rhoOut, s.sh.utilOut)
	}
}

// zeroPartial clears and returns chunk c's n-wide accumulator row.
func (s *Solver) zeroPartial(c int) []float64 {
	part := s.sh.partials[c*s.n : (c+1)*s.n]
	for i := range part {
		part[i] = 0
	}
	return part
}

// dispatch runs one task over every chunk and drops the per-dispatch
// arguments the caller staged in s.sh (so the workspace never pins the
// caller's vectors). It is the kernels' only call into the pool.
//
//netsamp:noalloc
func (s *Solver) dispatch(task int) {
	s.sh.task = task
	s.sh.pool.For(s.sh.nChunks, s.sh.runChunk) //netsamp:alloc-ok sole impl engine.Pool.For is noalloc-checked in its package
	s.sh.vecA, s.sh.vecB, s.sh.rhoOut, s.sh.utilOut = nil, nil, nil, nil
}

// reducePartials adds the chunk accumulator rows into out, in ascending
// chunk order — the worker-count-independent reduction.
//
//netsamp:noalloc
func (s *Solver) reducePartials(out []float64) {
	n := s.n
	for c := 0; c < s.sh.nChunks; c++ {
		part := s.sh.partials[c*n : (c+1)*n]
		for i := 0; i < n; i++ {
			out[i] += part[i]
		}
	}
}
