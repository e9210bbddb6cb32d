package core

import (
	"fmt"
	"testing"
)

// BenchmarkKernels times each solver kernel on its own, in ns per
// routing-matrix nonzero, on the two generated ISPs the interval-pipeline
// benchmark runs (bench/: isp-drift is the 300-link instance, 16.8k nnz;
// isp-reroute the 800-link one, 178k nnz), at the cold waterfilling
// point. Every kernel must run at 0 allocs/op.
func BenchmarkKernels(b *testing.B) {
	for _, links := range []int{300, 800} {
		cp := csrFromInstance(b, genInstance(b, links, 0, 1, true), 0.05)
		s, err := NewSolver(cp)
		if err != nil {
			b.Fatal(err)
		}
		n, nnz := s.n, float64(len(cp.Links))
		rates, g, dir, out, small := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		if err := s.initialPointInto(Options{}, rates); err != nil {
			b.Fatal(err)
		}
		s.syncActive(rates, s.lower, s.upper)
		nf := 0
		for i := range s.freePos {
			s.freePos[i] = -1
			if !s.lower[i] && !s.upper[i] {
				s.freePos[i] = int32(nf)
				nf++
			}
		}
		s.gradient(rates, g)
		lambda := s.projectionLambda(g, s.lower, s.upper)
		for i := range dir {
			if s.freePos[i] >= 0 {
				dir[i] = g[i] - lambda*s.loads[i]
			}
			// The CG solve is linear in its right-hand side: a gradient
			// scaled down until the step cannot reach the box costs exactly
			// the sweeps of a solve run to its residual target.
			small[i] = 1e-12 * g[i]
		}
		s.curvFill(rates)

		for _, k := range []struct {
			name string
			run  func()
		}{
			{"gradient", func() { s.gradient(rates, out) }},
			{"lineDerivs", func() { s.lineDerivs(rates, dir, 0) }},
			{"curvDiag", func() { s.curvFill(rates); s.hessDiagInto(out) }},
			{"hessMul", func() { s.hessMulInto(dir, out) }},
			{"newtonCG-truncated", func() { s.newtonCGInto(out, rates, g, nf) }},
			{"newtonCG-converged", func() { s.newtonCGInto(out, rates, small, nf) }},
			{"lmo", func() { s.lmoInto(g, rates, out) }},
		} {
			b.Run(fmt.Sprintf("%s/links=%d", k.name, links), func(b *testing.B) {
				if allocs := testing.AllocsPerRun(1, k.run); allocs != 0 {
					b.Fatalf("%v allocs/op, want 0", allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/nnz, "ns/nnz")
			})
		}
	}
}
