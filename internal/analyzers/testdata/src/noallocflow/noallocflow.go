// Package noallocflow is golden-test input for the call rules of the
// noalloc analyzer: a //netsamp:noalloc function may only call
// noalloc-annotated or recognized-leaf functions.
package noallocflow

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"netsamp/internal/engine"
)

// leaf is annotated: callable from noalloc functions.
//
//netsamp:noalloc
func leaf(x int) int { return x + 1 }

// plainHelper is NOT annotated.
func plainHelper(x int) int { return x * 2 }

// callsAnnotated is clean: annotated local callee plus whitelisted
// leaves (math wholesale, sync/atomic wholesale, mutex methods).
//
//netsamp:noalloc
func callsAnnotated(mu *sync.Mutex, n *uint64) float64 {
	mu.Lock()
	v := leaf(3)
	atomic.AddUint64(n, 1)
	mu.Unlock()
	return math.Sqrt(float64(v))
}

// callsPlain flows allocation risk through an unannotated callee.
//
//netsamp:noalloc
func callsPlain() int {
	return plainHelper(3) // want `call to plainHelper which is not //netsamp:noalloc`
}

// callsFmt reaches a cross-package callee that is neither whitelisted
// nor annotated in a dependency's facts.
//
//netsamp:noalloc
func callsFmt() string {
	return fmt.Sprintf("%d", 7) // want `cross-package call to fmt.Sprintf which is not //netsamp:noalloc there`
}

// pooled calls a method its own package annotates //netsamp:noalloc:
// the dependency's facts cover it.
//
//netsamp:noalloc
func pooled(p *engine.Pool, n int, body func(int)) {
	p.For(n, body)
}

// poolSize calls a dependency method that is not annotated there.
//
//netsamp:noalloc
func poolSize(p *engine.Pool) int {
	return p.Workers() // want `cross-package call to netsamp/internal/engine\.Pool\.Workers which is not //netsamp:noalloc there`
}

// funcValue calls through a function value: unresolvable statically.
//
//netsamp:noalloc
func funcValue(f func() int) int {
	return f() // want `call through a function value`
}

// escaped acknowledges a flagged call with a reason: no finding.
//
//netsamp:noalloc
func escaped(f func() int) int {
	//netsamp:alloc-ok classifier hook, caller contract requires noalloc impls
	return f()
}

// escapedNoReason forgets the reason: that itself is the finding.
//
//netsamp:noalloc
func escapedNoReason(f func() int) int {
	//netsamp:alloc-ok
	return f() // want `netsamp:alloc-ok requires a reason`
}

// coldPath calls an unannotated function only on the error exit, which
// the steady-state contract exempts.
//
//netsamp:noalloc
func coldPath(x int) int {
	if x < 0 {
		reportBad(x)
		return 0
	}
	return leaf(x)
}

func reportBad(x int) { fmt.Println("bad", x) }

// errString calls the predeclared error interface's method, a
// recognized builtin leaf.
//
//netsamp:noalloc
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// model is an interface whose in-package implementations all annotate
// the method: dynamic dispatch through it is covered.
type model interface{ value(x float64) float64 }

type linear struct{ a float64 }

//netsamp:noalloc
func (l linear) value(x float64) float64 { return l.a * x }

type square struct{}

//netsamp:noalloc
func (square) value(x float64) float64 { return x * x }

//netsamp:noalloc
func evalModel(m model, x float64) float64 {
	return m.value(x)
}

// open is an interface with an implementation that does NOT annotate
// the method, so dispatch through it is not covered.
type open interface{ cost(x int) int }

type cheap struct{}

//netsamp:noalloc
func (cheap) cost(x int) int { return x }

type pricey struct{}

func (pricey) cost(x int) int { return len(fmt.Sprint(x)) }

//netsamp:noalloc
func evalOpen(o open, x int) int {
	return o.cost(x) // want `call to open.cost which is not //netsamp:noalloc`
}

// closureVar calls a body-local variable only ever assigned a function
// literal: the literal is part of the inspected body, so the call adds
// no unverified edge. The literal itself is flagged, and its body is
// checked like the rest.
//
//netsamp:noalloc
func closureVar(x int) int {
	double := func(v int) int { // want `function literal`
		return plainHelper(v) // want `call to plainHelper which is not //netsamp:noalloc`
	}
	return double(x)
}

// notAnnotated is free to call anything: the analyzer only checks
// annotated functions.
func notAnnotated() string {
	return fmt.Sprintf("%d", plainHelper(2))
}
