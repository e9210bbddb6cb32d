package packet

// HashRange is a contiguous, inclusive interval [Lo, Hi] of the 64-bit
// flow-hash space (FiveTuple.FastHash). Coordinated sampling assigns
// each monitor on a path a range; the ranges of one path partition the
// space exactly — no flow is sampled twice, none falls in a gap.
//
// The canonical empty range is {Lo: 1, Hi: 0} (any Lo > Hi is empty);
// the zero value {0, 0} is the single-point range containing hash 0.
type HashRange struct {
	Lo, Hi uint64
}

// EmptyHashRange is the canonical empty range: it contains no hash.
var EmptyHashRange = HashRange{Lo: 1, Hi: 0}

// Contains reports whether h falls inside the range. Inclusive on both
// ends, so [0, MaxUint64] covers the whole hash space.
//
//netsamp:noalloc
func (r HashRange) Contains(h uint64) bool {
	return r.Lo <= h && h <= r.Hi
}

// Empty reports whether the range contains no hash.
//
//netsamp:noalloc
func (r HashRange) Empty() bool { return r.Lo > r.Hi }

// PartitionHashSpace splits the hash space into len(shares) contiguous
// inclusive ranges with widths proportional to the (positive) shares,
// writing them into dst (which must have len(shares) entries). The
// result is an exact partition regardless of floating-point rounding:
// range i+1 starts at one past range i's end, range 0 starts at 0, the
// last range ends at MaxUint64, and every range is non-empty. Shares
// must be positive; the function panics on a non-positive total.
//
//netsamp:noalloc
func PartitionHashSpace(dst []HashRange, shares []float64) {
	const maxU = ^uint64(0)
	if len(dst) != len(shares) {
		panic("packet: PartitionHashSpace length mismatch")
	}
	m := len(shares)
	if m == 0 {
		return
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if !(total > 0) {
		panic("packet: PartitionHashSpace needs a positive share total")
	}
	lo := uint64(0)
	cum := 0.0
	for i := range shares {
		cum += shares[i]
		var hi uint64
		if i == m-1 {
			// The last range absorbs all residual rounding.
			hi = maxU
		} else {
			f := cum / total
			if f >= 1 {
				hi = maxU
			} else if f <= 0 {
				hi = 0
			} else {
				// Map the cumulative fraction into [0, 2^64) via the
				// half-space to keep the float→uint conversion in range:
				// f < 1 bounds f·2^63 strictly below 2^63, so doubling
				// stays below 2^64.
				hi = uint64(f*(1<<63)) * 2
			}
			// Leave at least one hash for each remaining range so the
			// boundary chain stays strictly monotone.
			if maxSlot := maxU - uint64(m-1-i); hi > maxSlot {
				hi = maxSlot
			}
			// A positive share gets a non-empty range even when rounding
			// collapses its cumulative fraction onto the previous bound.
			if hi < lo {
				hi = lo
			}
		}
		dst[i] = HashRange{Lo: lo, Hi: hi}
		lo = hi + 1
	}
}
