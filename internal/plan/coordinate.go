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
	// Coordinate: slot numbers the monitors that own a range (in order of
	// first appearance), and slot s owns the entries
	// owned[start[s]:start[s+1]], in pair order. empty is one canonical
	// empty range per pair, the template every configuration starts from.
	slot  map[topology.LinkID]int32
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
// empty assignment with Coin 0.
func Coordinate(m *routing.Matrix, rates map[topology.LinkID]float64) *Coordination {
	c := &Coordination{Assignments: make([]PairAssignment, len(m.Pairs))}
	for k := range m.Pairs {
		a := &c.Assignments[k]
		a.Pair = m.Pairs[k].Name
		var shares []float64
		total := 0.0
		for j, lid := range m.Rows[k] {
			p := rates[lid]
			if p <= 0 {
				continue
			}
			f := 1.0
			if m.Fracs != nil && m.Fracs[k] != nil {
				f = m.Fracs[k][j]
			}
			share := f * p
			if share <= 0 {
				continue
			}
			a.Links = append(a.Links, lid)
			shares = append(shares, share)
			total += share
		}
		if len(a.Links) == 0 {
			continue
		}
		a.Coin = total
		if a.Coin > 1 {
			a.Coin = 1
		}
		a.Ranges = make([]packet.HashRange, len(shares))
		packet.PartitionHashSpace(a.Ranges, shares)
	}
	c.invert()
	return c
}

// invert builds the link → (pair, range) index from Assignments: one
// counting pass that numbers the owning links, one placing pass.
func (c *Coordination) invert() {
	c.slot = make(map[topology.LinkID]int32)
	var count, slots []int32
	for k := range c.Assignments {
		for _, l := range c.Assignments[k].Links {
			s, ok := c.slot[l]
			if !ok {
				s = int32(len(count))
				c.slot[l] = s
				count = append(count, 0)
			}
			count[s]++
			slots = append(slots, s)
		}
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
	s, ok := c.slot[lid]
	if !ok {
		return ranges, coins
	}
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
