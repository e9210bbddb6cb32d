package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"netsamp/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := v.Sum(); got != 6 {
		t.Fatalf("Sum = %v", got)
	}
	s := v.Clone()
	s.Scale(2)
	if s[0] != 2 || s[2] != 6 || v[0] != 1 {
		t.Fatalf("Scale/Clone broken: %v, original %v", s, v)
	}
	a := v.Clone().AXPY(2, w) // v + 2w
	want := Vector{9, 12, 15}
	for i := range a {
		if a[i] != want[i] {
			t.Fatalf("AXPY = %v, want %v", a, want)
		}
	}
	if d := w.Sub(v); d[0] != 3 || d[1] != 3 || d[2] != 3 {
		t.Fatalf("Sub = %v", d)
	}
	if d := w.Add(v); d[0] != 5 || d[1] != 7 || d[2] != 9 {
		t.Fatalf("Add = %v", d)
	}
}

func TestVectorDimensionPanics(t *testing.T) {
	cases := []func(){
		func() { Vector{1}.Dot(Vector{1, 2}) },
		func() { Vector{1}.AXPY(1, Vector{1, 2}) },
		func() { Vector{1}.Sub(Vector{1, 2}) },
		func() { Vector{1}.Add(Vector{1, 2}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic on dimension mismatch", i)
				}
			}()
			fn()
		}()
	}
}

func TestMatrixMulVec(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	got := m.MulVec(Vector{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMatrixMulIdentity(t *testing.T) {
	m := NewMatrix(3, 3)
	copy(m.Data, []float64{2, -1, 0, 1, 3, 7, 0, 0, 5})
	id := NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		id.Set(i, i, 1)
	}
	got := m.Mul(id)
	for i := range got.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatalf("M*I != M: %v", got.Data)
		}
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrix(3, 3)
	copy(a.Data, []float64{
		2, 1, -1,
		-3, -1, 2,
		-2, 1, 2,
	})
	// Classic system with solution x=2, y=3, z=-1.
	x, err := Solve(a, Vector{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := Vector{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-10) {
			t.Fatalf("Solve = %v, want %v", x, want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := Solve(a, Vector{1, 2}); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected non-square error")
	}
}

// TestLUSolveRandom is a property test: for random well-conditioned A and
// random x, Solve(A, A*x) must recover x.
func TestLUSolveRandom(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(12)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		// Diagonal dominance keeps the condition number sane.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)+1)
		}
		x := make(Vector, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], x[i])
			}
		}
	}
}

func TestCholeskyKnown(t *testing.T) {
	a := NewMatrix(3, 3)
	copy(a.Data, []float64{
		4, 12, -16,
		12, 37, -43,
		-16, -43, 98,
	})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Known factor: L = [[2,0,0],[6,1,0],[-8,5,3]].
	want := []float64{2, 0, 0, 6, 1, 0, -8, 5, 3}
	for i, w := range want {
		if !almostEqual(c.l.Data[i], w, 1e-10) {
			t.Fatalf("L = %v, want %v", c.l.Data, want)
		}
	}
	x, err := c.Solve(Vector{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b := a.MulVec(x)
	for i, v := range []float64{1, 2, 3} {
		if !almostEqual(b[i], v, 1e-8) {
			t.Fatalf("Cholesky solve residual: %v", b)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := FactorCholesky(a); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

// TestCholeskySolveRandomSPD checks Cholesky on random SPD matrices
// A = B*B^T + I.
func TestCholeskySolveRandomSPD(t *testing.T) {
	r := rng.New(123)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(10)
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, Vector(b.Data[i*n:(i+1)*n]).Dot(b.Data[j*n:(j+1)*n]))
			}
			a.Set(i, i, a.At(i, i)+1)
		}
		x := make(Vector, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		rhs := a.MulVec(x)
		c, err := FactorCholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := c.Solve(rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-7) {
				t.Fatalf("trial %d: got %v want %v", trial, got, x)
			}
		}
	}
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		v, w := Vector(raw[:n]), Vector(raw[n:2*n])
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
		}
		if v.Dot(w) != w.Dot(v) {
			return false
		}
		two := v.Clone().Scale(2)
		return almostEqual(two.Dot(w), 2*v.Dot(w), 1e-6*(1+math.Abs(v.Dot(w))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLUSolve32(b *testing.B) {
	r := rng.New(5)
	n := 32
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+40)
	}
	rhs := make(Vector, n)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
