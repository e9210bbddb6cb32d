// Package noalloc is golden-test input: each // want comment marks an
// expected finding on its line. This package holds the construct rules;
// testdata/src/noallocflow holds the call rules.
package noalloc

import (
	"errors"
	"fmt"
)

type pair struct{ a, b int }

//netsamp:noalloc
func run() {}

// unannotated functions are not checked at all.
func unannotated() []int {
	return make([]int, 8) // ok: no //netsamp:noalloc directive
}

//netsamp:noalloc
func grows(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n) // want `make`
	}
	return buf[:n]
}

//netsamp:noalloc
func selfAppend(xs []int, v int) []int {
	xs = append(xs, v) // ok: self-append grows in place (amortized)
	return xs
}

//netsamp:noalloc
func reuseAppend(buf, payload []byte) []byte {
	buf = append(buf[:0], payload...) // ok: buffer-reuse self-append
	return buf
}

//netsamp:noalloc
func freshAppend(xs []int) []int {
	ys := append(xs, 1) // want `fresh backing array`
	return ys
}

//netsamp:noalloc
func coldError(n int) error {
	if n < 0 {
		return fmt.Errorf("bad n %d", n) // ok: failure exit ends in return
	}
	return nil
}

//netsamp:noalloc
func hotFmt(n int) string {
	s := fmt.Sprintf("%d", n) // want `fmt\.Sprintf`
	return s
}

// hotError and excusedError: a steady-state errors.New is one finding,
// and one alloc-ok silences it.
//
//netsamp:noalloc
func hotError() error {
	return errors.New("steady state") // want `errors\.New`
}

//netsamp:noalloc
func excusedError() error {
	return errors.New("steady state") //netsamp:alloc-ok built once per closed interval, not per record
}

//netsamp:noalloc
func boxes(n int) any {
	return any(n) // want `conversion to interface`
}

//netsamp:noalloc
func copies(b []byte) string {
	return string(b) // want `string\(slice\) conversion`
}

//netsamp:noalloc
func literals() {
	_ = []int{1, 2}  // want `slice literal`
	_ = map[int]int{} // want `map literal`
	_ = &pair{}       // want `&composite literal`
}

//netsamp:noalloc
func spawns() {
	go run() // want `go statement`
}

//netsamp:noalloc
func closes() func() {
	return func() {} // want `function literal`
}

//netsamp:noalloc
func excused() func() {
	//netsamp:alloc-ok constructed once at startup, not per interval
	return func() {}
}

//netsamp:noalloc
func sloppyExcuse(xs []int) []int {
	//netsamp:alloc-ok
	ys := append(xs, 1) // want `requires a reason`
	return ys
}

// The boxing callees are annotated so that the calls below are judged
// on their arguments alone.

//netsamp:noalloc
func sink(v any) {}

//netsamp:noalloc
func sinks(vs ...any) {}

//netsamp:noalloc
func take(e error) {}

//netsamp:noalloc
func implicitBox(n int) {
	sink(n) // want `boxes the argument`
}

//netsamp:noalloc
func structBox(p pair) {
	sink(p) // want `boxes the argument`
}

//netsamp:noalloc
func ptrNoBox(p *pair) {
	sink(p) // ok: the interface data word holds the pointer, no allocation
}

//netsamp:noalloc
func ifacePassThrough(v any) {
	sink(v) // ok: already an interface, passes through unboxed
}

//netsamp:noalloc
func nilNoBox() {
	take(nil) // ok: nil interface
}

//netsamp:noalloc
func variadicBox(n int) {
	sinks(n, n+1) // want `boxes the argument` `boxes the argument`
}

//netsamp:noalloc
func spreadNoBox(vs []any) {
	sinks(vs...) // ok: the slice forwards as-is, no per-element boxing
}

//netsamp:noalloc
func coldBox(n int) int {
	if n < 0 {
		sink(n) // ok: failure exit ends in return, off the steady state
		return 0
	}
	return n
}

//netsamp:noalloc
func excusedBox(n int) {
	sink(n) //netsamp:alloc-ok logged once at startup, not per interval
}

//netsamp:noalloc
func coldPanic(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n)) // ok: a panic exit is cold, like a return
	}
	return n
}
