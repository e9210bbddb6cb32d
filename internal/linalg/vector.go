// Package linalg provides the small dense linear-algebra kernel the
// optimizer and evaluation harness rely on: vector arithmetic, dense
// matrices, LU factorization with partial pivoting and Cholesky
// factorization for symmetric positive-definite systems.
//
// Go has no mainstream numerical library in the standard library, and
// this repository is stdlib-only, so the kernel is implemented here. The
// problems solved are small (tens to a few hundred unknowns — one per
// candidate monitor link), so straightforward O(n^3) dense algorithms
// with partial pivoting are both adequate and easy to verify.
package linalg

import "fmt"

// Vector is a dense column vector.
type Vector []float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of v and w. It panics if the lengths
// differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot dimension mismatch %d vs %d", len(v), len(w)))
	}
	s := 0.0
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Scale multiplies every entry of v by a in place and returns v.
func (v Vector) Scale(a float64) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// AXPY adds a*x to v in place (v += a*x) and returns v. It panics if the
// lengths differ.
func (v Vector) AXPY(a float64, x Vector) Vector {
	if len(v) != len(x) {
		panic(fmt.Sprintf("linalg: AXPY dimension mismatch %d vs %d", len(v), len(x)))
	}
	for i := range v {
		v[i] += a * x[i]
	}
	return v
}

// Sub returns v - w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Sub dimension mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Add dimension mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sum returns the sum of the entries of v.
func (v Vector) Sum() float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
