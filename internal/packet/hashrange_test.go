package packet

import (
	"math"
	"testing"
)

// checkPartition asserts the partition invariants: range 0 starts at 0,
// the last ends at MaxUint64, consecutive ranges are adjacent, and no
// range is empty — together these guarantee every hash has exactly one
// owner.
func checkPartition(t *testing.T, ranges []HashRange) {
	t.Helper()
	if len(ranges) == 0 {
		return
	}
	if ranges[0].Lo != 0 {
		t.Fatalf("first range starts at %d, want 0", ranges[0].Lo)
	}
	if ranges[len(ranges)-1].Hi != ^uint64(0) {
		t.Fatalf("last range ends at %d, want MaxUint64", ranges[len(ranges)-1].Hi)
	}
	for i, r := range ranges {
		if r.Empty() {
			t.Fatalf("range %d empty: %+v", i, r)
		}
		if i > 0 && r.Lo != ranges[i-1].Hi+1 {
			t.Fatalf("range %d starts at %d, previous ended at %d", i, r.Lo, ranges[i-1].Hi)
		}
	}
}

// owners counts how many ranges contain h.
func owners(ranges []HashRange, h uint64) int {
	n := 0
	for _, r := range ranges {
		if r.Contains(h) {
			n++
		}
	}
	return n
}

func TestHashRangeBasics(t *testing.T) {
	full := HashRange{Lo: 0, Hi: ^uint64(0)}
	if !full.Contains(0) || !full.Contains(^uint64(0)) || full.Empty() {
		t.Fatal("full range misbehaves")
	}
	if !EmptyHashRange.Empty() || EmptyHashRange.Contains(0) {
		t.Fatal("canonical empty range misbehaves")
	}
	point := HashRange{Lo: 7, Hi: 7}
	if !point.Contains(7) || point.Contains(6) || point.Contains(8) {
		t.Fatal("point range misbehaves")
	}
}

func TestPartitionHashSpaceProportional(t *testing.T) {
	ranges := make([]HashRange, 4)
	shares := []float64{1, 1, 2, 4}
	PartitionHashSpace(ranges, shares)
	checkPartition(t, ranges)
	total := 0.0
	for _, s := range shares {
		total += s
	}
	for i, r := range ranges {
		got := (float64(r.Hi-r.Lo) + 1) / math.Pow(2, 64)
		want := shares[i] / total
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("range %d covers %.12f of the space, want %.12f", i, got, want)
		}
	}
}

func TestPartitionHashSpaceDegenerate(t *testing.T) {
	// One share owns everything.
	one := make([]HashRange, 1)
	PartitionHashSpace(one, []float64{0.25})
	checkPartition(t, one)

	// A tiny share squeezed between huge ones still gets a non-empty
	// range and the partition stays exact.
	ranges := make([]HashRange, 3)
	PartitionHashSpace(ranges, []float64{1e300, 1e-300, 1e300})
	checkPartition(t, ranges)

	// More ranges than distinguishable boundaries near the top.
	many := make([]HashRange, 64)
	shares := make([]float64, 64)
	for i := range shares {
		shares[i] = 1e-30
	}
	shares[0] = 1e30 // pushes every later cumulative fraction to ~1
	PartitionHashSpace(many, shares)
	checkPartition(t, many)
}

func TestPartitionHashSpacePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"length mismatch": func() { PartitionHashSpace(make([]HashRange, 1), []float64{1, 1}) },
		"zero total":      func() { PartitionHashSpace(make([]HashRange, 2), []float64{0, 0}) },
		"nan total":       func() { PartitionHashSpace(make([]HashRange, 1), []float64{math.NaN()}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestPartitionOwnsEveryFlowKey drives real flow keys through the
// partition: for any key, exactly one range contains its hash — the
// property that makes coordinated sampling duplicate-free and gap-free.
func TestPartitionOwnsEveryFlowKey(t *testing.T) {
	ranges := make([]HashRange, 3)
	PartitionHashSpace(ranges, []float64{0.003, 0.001, 0.002})
	for i := 0; i < 5000; i++ {
		key := FiveTuple{
			Src: Addr(i * 2654435761), Dst: Addr(^uint32(0) - uint32(i)),
			SrcPort: uint16(i), DstPort: uint16(i >> 3), Proto: ProtoTCP,
		}
		if n := owners(ranges, key.FastHash()); n != 1 {
			t.Fatalf("key %v hash %#x owned by %d ranges", key, key.FastHash(), n)
		}
	}
	// Boundary hashes, where off-by-one bugs live.
	for _, r := range ranges {
		for _, h := range []uint64{r.Lo, r.Hi} {
			if n := owners(ranges, h); n != 1 {
				t.Fatalf("boundary hash %#x owned by %d ranges", h, n)
			}
		}
	}
}

// FuzzPartitionHashSpace fuzzes the partition invariants over arbitrary
// share vectors and probe hashes: the ranges must always partition the
// space (exactly one owner per hash, no gaps, no overlaps).
func FuzzPartitionHashSpace(f *testing.F) {
	f.Add(1.0, 1.0, 1.0, uint64(0))
	f.Add(0.003, 0.001, 0.002, uint64(1)<<63)
	f.Add(1e-12, 1e12, 5.0, ^uint64(0))
	f.Add(0.5, 1e-300, 0.5, uint64(12345))
	f.Fuzz(func(t *testing.T, a, b, c float64, probe uint64) {
		shares := []float64{a, b, c}
		total := 0.0
		for _, s := range shares {
			if !(s > 0) || math.IsInf(s, 0) {
				t.Skip()
			}
			total += s
		}
		if !(total > 0) || math.IsInf(total, 0) {
			t.Skip()
		}
		ranges := make([]HashRange, len(shares))
		PartitionHashSpace(ranges, shares)
		checkPartition(t, ranges)
		if n := owners(ranges, probe); n != 1 {
			t.Fatalf("hash %#x owned by %d ranges (shares %v)", probe, n, shares)
		}
	})
}
