package netflow

import (
	"fmt"
	"math"
	"sync"

	"netsamp/internal/packet"
	"netsamp/internal/prefix"
	"netsamp/internal/topology"
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
type Estimator struct {
	interval uint32
	rho      []float64

	mu   sync.Mutex
	bins map[uint32][]uint64 // bin start → per-OD sampled packets
	loss float64             // transport record-loss fraction in [0, 1)
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
	return &Estimator{
		interval: intervalSeconds,
		rho:      clamped,
		bins:     make(map[uint32][]uint64),
	}, nil
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
	bin := binStart - binStart%e.interval
	e.mu.Lock()
	defer e.mu.Unlock()
	acc, ok := e.bins[bin]
	if !ok {
		acc = make([]uint64, len(e.rho))
		e.bins[bin] = acc
	}
	for k, c := range counts {
		acc[k] += c
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

// BinEstimate holds the per-OD estimates of one measurement interval.
type BinEstimate struct {
	Start uint32
	// Sampled[k] is the raw sampled packet count of OD pair k that
	// reached the collector.
	Sampled []uint64
	// Estimate[k] is Sampled[k]/(ρ_k·(1−ℓ)) for transport loss ℓ, or 0
	// when ρ_k = 0 (unmonitored).
	Estimate []float64
	// RelStdErr[k] is the delta-method relative standard error of
	// Estimate[k] under binomial thinning at rate ρ_k·(1−ℓ):
	// sqrt((1−ρ_eff)/X). Transport loss shrinks ρ_eff and so inflates
	// the reported uncertainty. It is +Inf when nothing was sampled.
	// The thinning model is exact under coordinated sampling (disjoint
	// hash ranges make "sampled somewhere" one Bernoulli(ρ) per packet)
	// and an approximation where independent monitors overlap.
	RelStdErr []float64
	// LowConfidence[k] flags estimates whose RelStdErr exceeds
	// LowConfidenceRelErr — the consumer should not trust them without
	// widening its own error bars.
	LowConfidence []bool
}

// Estimates returns one BinEstimate per interval, ordered by start time.
func (e *Estimator) Estimates() []BinEstimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	starts := topology.SortedKeys(e.bins)
	out := make([]BinEstimate, 0, len(starts))
	for _, s := range starts {
		counts := e.bins[s]
		be := BinEstimate{
			Start:         s,
			Sampled:       append([]uint64(nil), counts...),
			Estimate:      make([]float64, len(counts)),
			RelStdErr:     make([]float64, len(counts)),
			LowConfidence: make([]bool, len(counts)),
		}
		for k, c := range counts {
			effRho := e.rho[k] * (1 - e.loss)
			if effRho <= 0 {
				be.RelStdErr[k] = math.Inf(1)
				be.LowConfidence[k] = true
				continue
			}
			be.Estimate[k] = float64(c) / effRho
			if c == 0 {
				be.RelStdErr[k] = math.Inf(1)
			} else {
				be.RelStdErr[k] = math.Sqrt((1 - effRho) / float64(c))
			}
			be.LowConfidence[k] = be.RelStdErr[k] > LowConfidenceRelErr
		}
		out = append(out, be)
	}
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
