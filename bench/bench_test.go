package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"netsamp/internal/packet"
)

// toy shrinks a workload to test scale: the same code paths, a handful
// of intervals, small instances.
func toy(t *testing.T, name string) *spec {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "geant-flood":
		s.sizeScale, s.intervals = 0.02, 6
	case "geant-paper":
		s.intervals, s.daemonIntervals = 24, 16
	case "isp-drift":
		s.pairs, s.intervals = 60, 6
	case "isp-reroute":
		s.links, s.pairs, s.intervals = 300, 60, 4
	}
	s.minIntervals = s.intervals
	return s
}

func runToy(t *testing.T, s *spec, seed uint64, trace bool, mutate func(*intervalInput)) *result {
	t.Helper()
	res, err := runWorkload(s, runOptions{seed: seed, seconds: 0.2, trace: trace, stateRoot: t.TempDir(), mutate: mutate})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireMetric(t *testing.T, res *result, name, unit string) {
	t.Helper()
	m, ok := res.Metrics[name]
	switch {
	case !ok:
		t.Errorf("%s: metric %s missing", res.Workload, name)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("%s: metric %s = %v", res.Workload, name, m.Value)
	case m.Unit != unit:
		t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, name, m.Unit, unit)
	}
}

// Every workload emits every metric defined for it, finite and with its
// unit, and passes its own checks.
func TestEveryMetricEmitted(t *testing.T) {
	for _, ws := range specs() {
		s := toy(t, ws.name)
		res := runToy(t, s, 1, false, nil)
		for _, spec := range endToEndSpecs {
			requireMetric(t, res, spec.name, spec.unit)
			if res.Metrics[spec.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, spec.name, res.Metrics[spec.name].Value)
			}
		}
		for name, unit := range map[string]string{"failed_frac": "ratio", "interval_p95_ms": "ms", "restore_ms": "ms", "peak_rss_mb": "MB"} {
			requireMetric(t, res, name, unit)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d checks failed: %v", s.name, res.Failed, res.Attempted, res.Failures)
		}
		traced := runToy(t, s, 1, true, nil)
		for _, spec := range perLayerSpecs {
			requireMetric(t, traced, spec.name, spec.unit)
		}
		if traced.Failed != 0 {
			t.Errorf("%s traced: %d of %d checks failed: %v", s.name, traced.Failed, traced.Attempted, traced.Failures)
		}
		// Children cover the root: the driver's own share of an interval
		// is what no span accounts for.
		if share := traced.LayerShares["bench"]; share < 0 || share > 0.5 {
			t.Errorf("%s: driver self-time share %v", s.name, share)
		}
	}
}

// The same seed gives the same inputs and so the same counts; another
// seed changes them.
func TestSeedDeterminesCounts(t *testing.T) {
	exact := []string{
		"ingest.records", "ingest.datagrams", "ingest.duplicates", "ingest.seq_lost_frac",
		"core.iterations_per_step", "core.cold_iterations", "state.journal_bytes",
	}
	s := toy(t, "geant-paper")
	a, b, c := runToy(t, s, 1, true, nil), runToy(t, s, 1, true, nil), runToy(t, s, 2, true, nil)
	differs := false
	for _, name := range exact {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v on the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
		differs = differs || a.Metrics[name].Value != c.Metrics[name].Value
	}
	if !differs {
		t.Error("seed 2 reproduced every count of seed 1")
	}
	ea, eb, ec := runToy(t, s, 1, false, nil), runToy(t, s, 1, false, nil), runToy(t, s, 2, false, nil)
	if x, y := ea.Metrics["od_rel_err"].Value, eb.Metrics["od_rel_err"].Value; x != y {
		t.Errorf("od_rel_err %v then %v on the same seed", x, y)
	}
	if x, y := ea.Metrics["od_rel_err"].Value, ec.Metrics["od_rel_err"].Value; x == y {
		t.Errorf("od_rel_err %v on seeds 1 and 2 alike", x)
	}
}

// The checks bite: a corrupted datagram byte and a falsified ground truth
// each fail an interval.
func TestChecksBite(t *testing.T) {
	s := toy(t, "geant-flood")
	corrupt := func(in *intervalInput) {
		if in.t == 2 {
			in.dgrams[0][packet.HeaderSize] ^= 0xff // the first record's version byte
		}
	}
	if res := runToy(t, s, 1, false, corrupt); res.Failed == 0 || res.Metrics["failed_frac"].Value <= 0 {
		t.Error("a corrupted datagram passed every check")
	}
	falsify := func(in *intervalInput) {
		if in.t == 3 {
			in.delivered[0]++
		}
	}
	if res := runToy(t, s, 1, false, falsify); res.Failed == 0 || res.Metrics["failed_frac"].Value <= 0 {
		t.Error("a falsified ground truth passed every check")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{name: "x_ms", bound: 0.10}
	higher := metricSpec{name: "x_per_s", higher: true, bound: 0.10}
	for _, tc := range []struct {
		spec             metricSpec
		a, b             []float64
		aSpread, bSpread float64
		want             string
	}{
		{lower, []float64{100}, []float64{105}, 0, 0, "within"},
		{lower, []float64{100}, []float64{120}, 0, 0, "worse"},
		{lower, []float64{100}, []float64{80}, 0, 0, "better"},
		{higher, []float64{100}, []float64{80}, 0, 0, "worse"},
		{higher, []float64{100}, []float64{120}, 0, 0, "better"},
		{lower, []float64{90, 100, 110, 130}, []float64{115, 120, 125, 128}, 0.3, 0.05, "unresolved"},
		{lower, []float64{90, 100, 110, 130}, []float64{60, 70, 75, 80}, 0.3, 0.05, "better"},
	} {
		aMed := median(append([]float64(nil), tc.a...))
		bMed := median(append([]float64(nil), tc.b...))
		if got, _ := verdict(tc.spec, aMed, tc.aSpread, bMed, tc.bSpread, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", tc.spec.name, tc.a, tc.b, got, tc.want)
		}
	}
}

// BENCHMARK.json and the code declare the same workloads and metrics.
func TestBenchmarkJSONAgrees(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip(err)
	}
	type decl struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != fullSeconds {
		t.Errorf("run_seconds %d, code runs full length at %d", file.RunSeconds, fullSeconds)
	}
	better := func(higher bool) string {
		if higher {
			return "higher"
		}
		return "lower"
	}
	ws := specs()
	if len(file.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d in code", len(file.Workloads), len(ws))
	}
	for i, w := range file.Workloads {
		if w.Name != ws[i].name {
			t.Errorf("workload %d is %q, code has %q", i, w.Name, ws[i].name)
		}
	}
	if len(file.EndToEnd) != len(endToEndSpecs) {
		t.Fatalf("%d end-to-end metrics declared, %d in code", len(file.EndToEnd), len(endToEndSpecs))
	}
	for i, d := range file.EndToEnd {
		s := endToEndSpecs[i]
		if d.Name != s.name || d.Unit != s.unit || d.Better != better(s.higher) || d.Bound != s.bound {
			t.Errorf("end-to-end %d declared %+v, code has %+v", i, d, s)
		}
	}
	if len(file.PerLayer) != len(perLayerSpecs) {
		t.Fatalf("%d per-layer metrics declared, %d in code", len(file.PerLayer), len(perLayerSpecs))
	}
	for i, d := range file.PerLayer {
		s := perLayerSpecs[i]
		if d.Name != s.name || d.Unit != s.unit || d.Better != better(s.higher) {
			t.Errorf("per-layer %d declared %+v, code has %s %s", i, d, s.name, s.unit)
		}
	}
}
