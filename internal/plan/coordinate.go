package plan

import (
	"slices"

	"netsamp/internal/packet"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// PairAssignment is the coordinated-sampling configuration of one OD
// pair: which monitors own which hash ranges, and the coin the owner
// applies to flows inside its range.
//
// The construction realizes the coordinated rate model's additive
// surrogate S_k = Σ f_ki·p_i as an inclusion probability min(1, S_k):
// the pair's flow-hash space is partitioned among its active monitors
// with widths proportional to each monitor's share f_ki·p_i, and the
// unique owner of a flow samples its packets with probability Coin =
// min(1, S_k). A uniformly hashed flow is therefore included with
// probability Σ_i (share_i/S_k)·Coin = min(1, S_k) — exactly the
// coordinated model's Deployed(ρ_k) — while no packet is ever sampled
// by two monitors (the budget buys coverage, not duplicates).
type PairAssignment struct {
	// Pair is the OD pair's name (routing.ODPair.Name).
	Pair string
	// Coin is the per-flow sampling probability the owning monitor
	// applies: min(1, Σ f_ki·p_i). Zero when no monitor on the path has
	// a positive rate (the pair is unmeasured).
	Coin float64
	// Links lists the pair's active monitors in path order; Ranges is
	// the parallel hash-range assignment. The ranges partition the full
	// 64-bit hash space exactly (see packet.PartitionHashSpace).
	Links  []topology.LinkID
	Ranges []packet.HashRange
}

// Coordination is the deterministic flow-space assignment derived from
// a routing matrix and a deployed per-link rate assignment. Building it
// is a pure function of (matrix, rates): the same inputs always yield
// bitwise-identical ranges, so exporters configured independently from
// the same plan agree on the partition.
type Coordination struct {
	// Assignments is indexed like the matrix's pairs.
	Assignments []PairAssignment

	// The per-link inversion MonitorConfig reads, built once by
	// Coordinate: slot[lid] numbers the monitors that own a range (in
	// order of first appearance; -1 for a link that owns none, and links
	// past its end own none), and slot s owns the entries
	// owned[start[s]:start[s+1]], in pair order. empty is one canonical
	// empty range per pair, the template every configuration starts from.
	slot  []int32
	start []int32
	owned []ownedRange
	empty []packet.HashRange
}

// ownedRange is one entry of a monitor's configuration: the range
// Assignments[pair].Ranges[pos].
type ownedRange struct{ pair, pos int32 }

// Coordinate derives the per-pair hash-range assignment for a deployed
// rate assignment under the coordinated rate model. Monitors with zero
// (or absent) rates own no range; a pair with no active monitor gets an
// empty assignment with Coin 0. Every pair's Links and Ranges are
// capacity-capped windows of two arrays sized to the matrix's entries.
func Coordinate(m *routing.Matrix, rates map[topology.LinkID]float64) *Coordination {
	c := &Coordination{Assignments: make([]PairAssignment, len(m.Pairs))}
	nnz := 0
	for _, row := range m.Rows {
		nnz += len(row)
	}
	links := make([]topology.LinkID, 0, nnz)
	ranges := make([]packet.HashRange, nnz)
	// dense[lid] is rates[lid], laid out once so each entry below costs
	// one load instead of a map lookup.
	maxLid := topology.LinkID(-1)
	//netsamp:nondeterministic-ok a maximum is iteration-order independent
	for lid := range rates {
		maxLid = max(maxLid, lid)
	}
	dense := make([]float64, maxLid+1)
	//netsamp:nondeterministic-ok each key writes its own slot, so the result is iteration-order independent
	for lid, p := range rates {
		if lid >= 0 {
			dense[lid] = p
		}
	}
	var shares []float64 // the pair's active shares, reused across pairs
	for k := range m.Pairs {
		a := &c.Assignments[k]
		a.Pair = m.Pairs[k].Name
		lo := len(links)
		shares = shares[:0]
		total := 0.0
		for j, lid := range m.Rows[k] {
			if uint(lid) >= uint(len(dense)) || dense[lid] <= 0 {
				continue
			}
			p := dense[lid]
			f := 1.0
			if m.Fracs != nil && m.Fracs[k] != nil {
				f = m.Fracs[k][j]
			}
			share := f * p
			if share <= 0 {
				continue
			}
			links = append(links, lid)
			shares = append(shares, share)
			total += share
		}
		hi := len(links)
		if hi == lo {
			continue
		}
		a.Links = links[lo:hi:hi]
		a.Coin = total
		if a.Coin > 1 {
			a.Coin = 1
		}
		a.Ranges = ranges[lo:hi:hi]
		packet.PartitionHashSpace(a.Ranges, shares)
	}
	c.invert(links)
	return c
}

// invert builds the link → (pair, range) index from Assignments, whose
// Links windows, in pair order, make up links: one counting pass that
// numbers the owning links, one placing pass.
func (c *Coordination) invert(links []topology.LinkID) {
	maxLink := topology.LinkID(-1)
	for _, l := range links {
		maxLink = max(maxLink, l)
	}
	c.slot = make([]int32, maxLink+1)
	for l := range c.slot {
		c.slot[l] = -1
	}
	var count []int32
	slots := make([]int32, len(links))
	for e, l := range links {
		s := c.slot[l]
		if s < 0 {
			s = int32(len(count))
			c.slot[l] = s
			count = append(count, 0)
		}
		count[s]++
		slots[e] = s
	}
	c.start = make([]int32, len(count)+1)
	for s, n := range count {
		c.start[s+1] = c.start[s] + n
		count[s] = c.start[s] // now the placing cursor
	}
	c.empty = make([]packet.HashRange, len(c.Assignments))
	for k := range c.empty {
		c.empty[k] = packet.EmptyHashRange
	}
	c.owned = make([]ownedRange, len(slots))
	e := 0
	for k := range c.Assignments {
		for j := range c.Assignments[k].Links {
			s := slots[e]
			c.owned[count[s]] = ownedRange{pair: int32(k), pos: int32(j)}
			count[s]++
			e++
		}
	}
}

// MonitorConfig extracts the per-pair filter configuration of one
// monitor: ranges[k] is the hash range link lid owns for pair k (the
// canonical empty range when it owns none) and coins[k] the sampling
// probability to apply inside it. The slices feed
// netflow.CoordConfig directly. Past filling the defaults, the cost is
// the monitor's own pairs; the Coordination must come from Coordinate.
func (c *Coordination) MonitorConfig(lid topology.LinkID) (ranges []packet.HashRange, coins []float64) {
	ranges = slices.Clone(c.empty) // a copy, not a zeroed make then a fill
	coins = make([]float64, len(c.Assignments))
	if lid < 0 || int(lid) >= len(c.slot) || c.slot[lid] < 0 {
		return ranges, coins
	}
	s := c.slot[lid]
	// Backwards, so that a link listed twice on one pair's path keeps its
	// first range.
	own := c.owned[c.start[s]:c.start[s+1]]
	for i := len(own) - 1; i >= 0; i-- {
		a := &c.Assignments[own[i].pair]
		ranges[own[i].pair] = a.Ranges[own[i].pos]
		coins[own[i].pair] = a.Coin
	}
	return ranges, coins
}
