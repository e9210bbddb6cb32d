package netflow

import (
	"fmt"

	"netsamp/internal/packet"
)

// CoordConfig configures a monitor for coordinated (cSamp-style) flow
// sampling: flows of a measured OD pair are considered only when their
// 64-bit flow-key hash falls inside this monitor's assigned range, and
// are then sampled with the pair's coin probability. The ranges of the
// monitors on a pair's path partition the hash space exactly (see
// plan.Coordinate), so every flow has exactly one owner — coordination
// eliminates duplicate sampling instead of renormalizing it away.
//
// Ranges and Coins are indexed by the OD pair index the classifier
// returns (plan.Coordination.MonitorConfig emits both). Flows that do
// not classify to a measured pair fall back to the monitor's plain
// Config.SamplingRate coin: background traffic keeps behaving exactly
// as in the uncoordinated pipeline.
type CoordConfig struct {
	// Classify resolves a flow key to its OD pair index.
	Classify ODClassifier
	// Ranges[od] is this monitor's hash range for pair od — the
	// canonical empty range when the monitor owns none of the pair's
	// flow space.
	Ranges []packet.HashRange
	// Coins[od] is the sampling probability applied to flows this
	// monitor owns for pair od: min(1, Σ f·p) over the pair's path.
	Coins []float64
}

// NewCoordConfig validates and assembles a coordination filter.
func NewCoordConfig(classify ODClassifier, ranges []packet.HashRange, coins []float64) (*CoordConfig, error) {
	if classify == nil {
		return nil, fmt.Errorf("netflow: nil classifier")
	}
	if len(ranges) == 0 || len(ranges) != len(coins) {
		return nil, fmt.Errorf("netflow: %d ranges for %d coins, want equal and > 0", len(ranges), len(coins))
	}
	for od, c := range coins {
		if !(c >= 0 && c <= 1) {
			return nil, fmt.Errorf("netflow: pair %d coin %v out of [0, 1]", od, c)
		}
		if c > 0 && ranges[od].Empty() {
			return nil, fmt.Errorf("netflow: pair %d has coin %v but an empty range", od, c)
		}
	}
	return &CoordConfig{Classify: classify, Ranges: ranges, Coins: coins}, nil
}

// Decide is the exporter-side hash filter, run on every observed packet
// before the sampling coin: it returns the coin probability to apply
// and whether this monitor may consider the flow at all. A flow of a
// measured pair outside the monitor's range is someone else's to sample
// (consider = false); an unclassified flow falls back to the plain base
// rate. It allocates nothing — FastHash and Contains are pure integer
// arithmetic on the decode path.
//
//netsamp:noalloc
func (c *CoordConfig) Decide(key packet.FiveTuple, base float64) (rate float64, consider bool) {
	od, ok := c.Classify(key) //netsamp:allocflow-ok classifier installed at config time is a pure index lookup
	if !ok || od < 0 || od >= len(c.Ranges) {
		return base, true
	}
	if !c.Ranges[od].Contains(key.FastHash()) {
		return 0, false
	}
	return c.Coins[od], true
}
