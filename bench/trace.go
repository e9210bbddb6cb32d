package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans live in memory and are
// written out when the run ends; interval is the identifier the spans
// of one interval share and parent indexes the span that caused this
// one (-1 for an interval's root).
type span struct {
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int32  `json:"parent"`
	Interval int32  `json:"interval"`
	// N is the work the call covered (datagrams, records, bytes), so
	// ratios are taken where the work happens.
	N int64 `json:"n,omitempty"`
}

// tracer records spans. A nil *tracer records nothing and costs one
// comparison per call, which is how the untraced run shares the traced
// run's code.
type tracer struct {
	epoch    time.Time
	spans    []span
	root     int32
	interval int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16), root: -1, interval: -1}
}

// beginRoot opens interval t's root span; later begins nest under it.
func (tr *tracer) beginRoot(t int) int {
	if tr == nil {
		return -1
	}
	tr.interval = int32(t)
	tr.root = -1
	tr.root = int32(tr.begin("interval"))
	return int(tr.root)
}

func (tr *tracer) begin(name string) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Parent: tr.root, Interval: tr.interval, StartNs: int64(time.Since(tr.epoch))})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int, n int64) {
	if tr == nil {
		return
	}
	tr.spans[id].EndNs = int64(time.Since(tr.epoch))
	tr.spans[id].N = n
}

// endRoot closes the interval: spans begun afterwards (shadow
// measurements) are parentless and belong to no root's self time.
func (tr *tracer) endRoot(id int) {
	if tr == nil {
		return
	}
	tr.end(id, 0)
	tr.root = -1
}

// durations returns every span of the name in nanoseconds, and the work
// they covered in total.
func (tr *tracer) durations(name string) (ns []float64, n int64) {
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Name == name {
			ns = append(ns, float64(s.EndNs-s.StartNs))
			n += s.N
		}
	}
	return ns, n
}

// selfTimes returns, per interval root, the root's duration and the part
// of it no child span covers (the driver's own time). Children of a root
// never overlap: the driver is one goroutine.
func (tr *tracer) selfTimes() (root, self []float64) {
	covered := make(map[int32]int64)
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i := range tr.spans {
		if s := &tr.spans[i]; s.Name == "interval" {
			d := s.EndNs - s.StartNs
			root = append(root, float64(d))
			self = append(self, float64(d-covered[int32(i)]))
		}
	}
	return root, self
}

// layerShares sums self time per layer (the span name up to its first
// dot) over all interval roots, as fractions of the roots' total.
func (tr *tracer) layerShares() map[string]float64 {
	total := 0.0
	sums := make(map[string]float64)
	for i := range tr.spans {
		s := &tr.spans[i]
		d := float64(s.EndNs - s.StartNs)
		switch {
		case s.Name == "interval":
			total += d
			sums["bench"] += d
		case s.Parent >= 0:
			layer := s.Name
			for j := range layer {
				if layer[j] == '.' {
					layer = layer[:j]
					break
				}
			}
			sums[layer] += d
			sums["bench"] -= d
		}
	}
	for k := range sums {
		sums[k] /= total
	}
	return sums
}

func (tr *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile (nearest rank on the sorted sample) of
// xs, or 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// batchMedian splits xs, in order, into at most 20 equal batches and
// returns the median of the batch means. A sub-millisecond operation
// repeated hundreds of times has a two-peaked distribution here (with
// and without a GC assist), and the median of such a sample jumps
// between the peaks from run to run; batch means have one peak.
func batchMedian(xs []float64) float64 {
	size := (len(xs) + 19) / 20
	var means []float64
	for lo := 0; lo+size <= len(xs) && size > 0; lo += size {
		means = append(means, mean(xs[lo:lo+size]))
	}
	return median(means)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
