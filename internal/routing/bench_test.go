package routing

import (
	"fmt"
	"testing"

	"netsamp/internal/topology"
)

// BenchmarkBuildMatrixECMP routes every sampled pair of the 300- and
// 800-link generated instances (2 550 and 21 170 pairs) over a table
// computed once; ns/pair is the splitter's cost per OD pair.
func BenchmarkBuildMatrixECMP(b *testing.B) {
	for _, links := range []int{300, 800} {
		inst, err := topology.GenerateScale(topology.ScaleConfig{Seed: 1, Links: links, ECMP: true})
		if err != nil {
			b.Fatal(err)
		}
		pairs := generatedPairs(inst)
		tbl := ComputeTable(inst.Graph)
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := BuildMatrixECMP(tbl, pairs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
		})
	}
}

// TestBuildMatrixECMPAllocsFlat: the rows share one backing store and
// the router's scratch is sized once, so a matrix costs a constant number
// of allocations, not one or two per pair (2 550 pairs here).
func TestBuildMatrixECMPAllocsFlat(t *testing.T) {
	inst, err := topology.GenerateScale(topology.ScaleConfig{Seed: 1, Links: 300, ECMP: true})
	if err != nil {
		t.Fatal(err)
	}
	pairs := generatedPairs(inst)
	tbl := ComputeTable(inst.Graph)
	const bound = 40
	for _, n := range []int{10, len(pairs)} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := BuildMatrixECMP(tbl, pairs[:n]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > bound {
			t.Errorf("%d pairs: %.0f allocations, want at most %d", n, allocs, bound)
		}
	}
}
