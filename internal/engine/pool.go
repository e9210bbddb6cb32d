package engine

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Pool is a persistent worker pool for repeated data-parallel loops over
// index ranges. Unlike Map/Run — which spin up goroutines, result slices
// and an error slice per batch — a Pool is built once and then dispatches
// loops with zero heap allocations, which is what the solver's sharded
// gradient/Hessian kernels need to keep SolveInto at 0 allocs/op.
//
// The contract is deliberately narrower than Map's:
//
//   - For(n, fn) runs fn(i) for every i in [0, n) across the workers and
//     returns when all calls finished. Calls may run in any order and
//     concurrently; fn must write only state owned by index i.
//   - A Pool carries no RNG plumbing: the solver kernels are
//     deterministic pure functions of their inputs. Determinism across
//     worker counts is the *caller's* job (fixed chunking + ordered
//     reduction); the pool only promises that every index runs exactly
//     once.
//   - For is not reentrant: one loop at a time per Pool. Concurrent For
//     calls on the same Pool are a caller bug.
//   - A panic in fn is captured and re-raised from For after the loop
//     has drained, so sibling indices still complete and the pool stays
//     usable.
type Pool struct {
	workers int
	jobs    chan int
	wg      sync.WaitGroup
	done    sync.WaitGroup
	fn      func(int)

	mu       sync.Mutex
	panicVal any
	stack    []byte
}

// NewPool starts a pool with the given number of workers; values <= 0
// select runtime.GOMAXPROCS(0). Close releases the workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		// Buffer the job channel generously so For's feed loop rarely
		// blocks: chunk counts are small (the solver caps them at 64).
		jobs: make(chan int, 256),
	}
	p.done.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker() {
	defer p.done.Done()
	for idx := range p.jobs {
		p.call(idx)
		p.wg.Done()
	}
}

// call runs one index with panic capture. The first panic wins; it is
// re-raised from For once the loop has drained.
func (p *Pool) call(idx int) {
	defer func() {
		if v := recover(); v != nil {
			p.mu.Lock()
			if p.panicVal == nil {
				p.panicVal = v
				p.stack = debug.Stack()
			}
			p.mu.Unlock()
		}
	}()
	p.fn(idx)
}

// For runs fn(i) for every i in [0, n) on the pool and waits for all of
// them. The function value is published to the workers by the channel
// sends (send happens-before receive), so storing it in a plain field is
// race-free. Dispatch allocates nothing: the indices travel over a
// buffered chan int and completion is a sync.WaitGroup.
//
//netsamp:noalloc
func (p *Pool) For(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	p.fn = fn
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		p.jobs <- i //netsamp:ctx-ok workers drain jobs until Close; receiver lifetime equals pool lifetime
	}
	p.wg.Wait()
	p.fn = nil
	if p.panicVal != nil {
		p.rethrow() //netsamp:alloc-ok deliberate: wrapping a worker panic allocates only after the solve is dead
	}
}

// rethrow re-raises a captured loop panic as a *PoolPanicError. Kept out
// of For so the wrapper's allocation stays off the annotated hot path —
// by the time we are here the solve is dead anyway.
func (p *Pool) rethrow() {
	v, stack := p.panicVal, p.stack
	p.panicVal, p.stack = nil, nil
	panic(&PoolPanicError{Value: v, Stack: trimStack(stack)})
}

// Close shuts the workers down and waits for them to exit. The pool must
// be idle (no For in flight). Close is idempotent only in the sense that
// it must be called exactly once; a second Close panics like any double
// channel close.
func (p *Pool) Close() {
	close(p.jobs)
	p.done.Wait()
}

// PoolPanicError reports a panic raised by a Pool.For body. It is thrown
// (re-panicked), not returned: For has no error path, matching the
// solver kernels it hosts, which are panic-free by construction — a
// panic here is a bug, and the original value and trimmed stack identify
// it.
type PoolPanicError struct {
	Value any
	Stack []byte
}

func (e *PoolPanicError) Error() string {
	return "engine: pool loop panicked: " + sprintAny(e.Value) + "\n" + string(e.Stack)
}

func sprintAny(v any) string {
	switch t := v.(type) {
	case string:
		return t
	case error:
		return t.Error()
	default:
		return "non-string panic value"
	}
}
