package netflow

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"netsamp/internal/packet"
	"netsamp/internal/prefix"
)

// ODClassifier maps a flow key to the index of the OD pair it belongs
// to. It returns ok = false for background traffic outside the
// measurement task (the paper resolves the egress PoP from the
// destination address; here the classifier encapsulates that step).
type ODClassifier func(key packet.FiveTuple) (od int, ok bool)

// Estimator is the post-processing stage of the paper's pipeline: it
// holds per-OD sampled packet counts binned into measurement intervals
// (Section V-A) and renormalizes them by the effective sampling rate ρ
// of each OD pair to produce size estimates X/ρ. Counts in, estimates
// out: classifying records into (interval, OD) bins is the ingest
// tier's job (internal/ingest). It is safe for concurrent use.
//
// Estimates lends the bins' count slices instead of copying them, and
// the estimates are computed when read, so a call costs one allocation
// however long the deployment has run. A lent slice is never written
// again: AddCounts copies a bin's slice before its first write after a
// lend (copy-on-write), which keeps every earlier result frozen.
type Estimator struct {
	interval uint32
	rho      []float64 // clamped to [0, 1]; never written after NewEstimator

	mu   sync.Mutex
	bins []countBin // ascending by start
	loss float64    // transport record-loss fraction in [0, 1)
	// epoch counts Estimates calls. A bin whose slice was allocated in an
	// earlier epoch may have been lent, so AddCounts copies it first —
	// one comparison per write instead of a mark per bin per lend.
	epoch uint64
}

// countBin is one measurement interval's per-OD sampled packet counts.
type countBin struct {
	start  uint32
	counts []uint64
	epoch  uint64 // Estimator.epoch when counts was allocated
}

// RhoError is NewEstimator's rejection of an effective sampling rate
// that is not a probability: NaN, ±Inf or negative.
type RhoError struct {
	Pair  int
	Value float64
}

func (e *RhoError) Error() string {
	return fmt.Sprintf("netflow: pair %d effective rate %v is not a probability", e.Pair, e.Value)
}

// NewEstimator builds an estimator for len(rho) OD pairs over
// measurement intervals of the given length in seconds. rho[k] is pair
// k's inclusion probability; a non-finite or negative value is rejected
// with a *RhoError, and a value above 1 is clamped to 1 — the solver's
// additive surrogate Σ f·p of eq. (7) can exceed 1, while what the
// monitors deploy is min(1, ·).
func NewEstimator(intervalSeconds uint32, rho []float64) (*Estimator, error) {
	if intervalSeconds == 0 {
		return nil, fmt.Errorf("netflow: zero interval")
	}
	if len(rho) == 0 {
		return nil, fmt.Errorf("netflow: no OD pairs")
	}
	clamped := make([]float64, len(rho))
	for k, r := range rho {
		if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return nil, &RhoError{Pair: k, Value: r}
		}
		clamped[k] = math.Min(r, 1)
	}
	return &Estimator{interval: intervalSeconds, rho: clamped}, nil
}

// AddCounts folds pre-classified per-OD sampled packet counts into the
// interval containing binStart — the ingest tier's merge entry point:
// shards accumulate locally without touching the estimator's lock per
// record, then flush their deltas here at merge cadence. Integer
// addition is exact and commutative, so the merged totals are
// independent of shard count and merge order.
func (e *Estimator) AddCounts(binStart uint32, counts []uint64) error {
	if len(counts) != len(e.rho) {
		return fmt.Errorf("netflow: %d counts for %d OD pairs", len(counts), len(e.rho))
	}
	start := binStart - binStart%e.interval
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := slices.BinarySearchFunc(e.bins, start, func(b countBin, s uint32) int { return cmp.Compare(b.start, s) })
	if !ok {
		e.bins = slices.Insert(e.bins, i, countBin{start: start, counts: make([]uint64, len(e.rho)), epoch: e.epoch})
	}
	b := &e.bins[i]
	if b.epoch != e.epoch {
		b.counts, b.epoch = slices.Clone(b.counts), e.epoch
	}
	for k, c := range counts {
		b.counts[k] += c
	}
	return nil
}

// SetTransportLoss informs the estimator of the transport-level record
// loss fraction ℓ the collector observed — FlowSequence gaps plus its
// own drops (ingest.Collector.LossFraction). Estimates are renormalized
// by ρ·(1−ℓ) — the true inclusion probability of a packet that must be
// sampled AND its record delivered — and the per-estimate relative
// standard error is inflated accordingly. Fractions outside [0, 1) are
// rejected.
func (e *Estimator) SetTransportLoss(frac float64) error {
	if !(frac >= 0 && frac < 1) {
		return fmt.Errorf("netflow: transport loss fraction %v out of [0, 1)", frac)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.loss = frac
	return nil
}

// LowConfidenceRelErr is the relative-standard-error threshold above
// which an estimate is flagged low-confidence.
const LowConfidenceRelErr = 0.5

// BinEstimate is one measurement interval as Estimates saw it: the
// sampled counts plus the ρ and transport loss ℓ in force at the call.
// The per-OD estimates are computed from those on read, so a later
// AddCounts or SetTransportLoss never changes a BinEstimate already
// returned.
type BinEstimate struct {
	Start uint32
	// Sampled[k] is the raw sampled packet count of OD pair k that
	// reached the collector. The slice is shared with the estimator and
	// with every other caller: read it, never write it.
	Sampled []uint64

	rho  []float64
	loss float64
}

// Estimate is Sampled[k]/(ρ_k·(1−ℓ)) for transport loss ℓ, or 0 when
// ρ_k = 0 (unmonitored).
func (b *BinEstimate) Estimate(k int) float64 {
	effRho := b.rho[k] * (1 - b.loss)
	if effRho <= 0 {
		return 0
	}
	return float64(b.Sampled[k]) / effRho
}

// RelStdErr is the delta-method relative standard error of Estimate(k)
// under binomial thinning at rate ρ_k·(1−ℓ): sqrt((1−ρ_eff)/X).
// Transport loss shrinks ρ_eff and so inflates the reported
// uncertainty. It is +Inf when nothing was sampled or ρ_k = 0. The
// thinning model is exact under coordinated sampling (disjoint hash
// ranges make "sampled somewhere" one Bernoulli(ρ) per packet) and an
// approximation where independent monitors overlap.
func (b *BinEstimate) RelStdErr(k int) float64 {
	effRho := b.rho[k] * (1 - b.loss)
	c := b.Sampled[k]
	if effRho <= 0 || c == 0 {
		return math.Inf(1)
	}
	return math.Sqrt((1 - effRho) / float64(c))
}

// LowConfidence flags an estimate whose RelStdErr exceeds
// LowConfidenceRelErr — the consumer should not trust it without
// widening its own error bars.
func (b *BinEstimate) LowConfidence(k int) bool {
	return b.RelStdErr(k) > LowConfidenceRelErr
}

// Estimates returns one BinEstimate per interval, ordered by start time.
// It allocates the returned slice and nothing else: the count slices
// are lent, not copied.
func (e *Estimator) Estimates() []BinEstimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]BinEstimate, len(e.bins))
	for i, b := range e.bins {
		out[i] = BinEstimate{Start: b.start, Sampled: b.counts, rho: e.rho, loss: e.loss}
	}
	e.epoch++ // every slice just lent was allocated before this epoch
	return out
}

// PrefixClassifier builds an ODClassifier that resolves the OD pair of
// a flow by longest-prefix match on the destination address — the
// paper's egress-PoP resolution step ("we associate to each flow record
// the egress PoP, computed from the destination IP address").
func PrefixClassifier(t *prefix.Table) ODClassifier {
	return func(key packet.FiveTuple) (int, bool) {
		v, ok := t.Lookup(key.Dst)
		if !ok || v < 0 {
			return 0, false
		}
		return int(v), true
	}
}

// LinkLoadObservation converts one monitor's interval sample into a
// link-load observation for the controller's confidence tracker
// (control.StepInput.Loads/LoadRelErr): the transport-loss-renormalized
// point estimate X/(p·(1−ℓ)·T) in packets per second and its
// delta-method relative standard error sqrt((1−p_eff)/X) — exactly the
// inflation SetTransportLoss applies to per-OD estimates, carried
// through to the load tracker instead of stopping at the estimate.
// lowConfidence mirrors BinEstimate.LowConfidence: the error crossed
// LowConfidenceRelErr and the tracker should widen rather than trust
// (a +Inf relErr makes loadtrack treat the interval as unobserved).
func LinkLoadObservation(sampled uint64, rate, loss, intervalSec float64) (estimate, relErr float64, lowConfidence bool) {
	eff := rate * (1 - loss)
	if !(eff > 0) || eff > 1 || !(intervalSec > 0) {
		return 0, math.Inf(1), true
	}
	estimate = float64(sampled) / (eff * intervalSec)
	if sampled == 0 {
		return 0, math.Inf(1), true
	}
	relErr = math.Sqrt((1 - eff) / float64(sampled))
	return estimate, relErr, relErr > LowConfidenceRelErr
}
