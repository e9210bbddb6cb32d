package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is one end-to-end metric's direction and regression bound,
// as BENCHMARK.json declares them.
type metricSpec struct {
	name   string
	unit   string
	higher bool // higher is better
	// bound is the share of the baseline by which the metric may worsen
	// before -compare calls it worse.
	bound float64
}

// endToEndSpecs is the bounded end-to-end catalogue, in BENCHMARK.json's
// order. Four end-to-end numbers are reported but not bounded here:
// failed_frac (its bound is zero in absolute terms; -compare checks it
// apart), and interval_p95_ms, restore_ms and peak_rss_mb, which move
// between two sets of runs of one commit by more than the largest bound
// allowed (README, "Bounds"); the traced run carries those three as
// bench.interval_p95_ms, state.restore_ms and bench.peak_rss_mb.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", false, 0.25},
	{"interval_p50_ms", "ms", false, 0.25},
	{"close_p50_ms", "ms", false, 0.25},
	{"records_per_s", "1/s", true, 0.25},
	{"cold_plan_ms", "ms", false, 0.15},
	{"od_rel_err", "ratio", false, 0.15},
	{"live_heap_mb", "MB", false, 0.25},
}

// loadResults reads one side of a comparison: a comma-separated list of
// result files, or of directories holding <workload>.json files. It
// returns the end-to-end runs grouped by workload.
func loadResults(arg string) (map[string][]*result, error) {
	out := make(map[string][]*result)
	for _, path := range strings.Split(arg, ",") {
		files := []string{path}
		if st, err := os.Stat(path); err != nil {
			return nil, err
		} else if st.IsDir() {
			if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
				return nil, err
			}
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			var res result
			if err := json.Unmarshal(b, &res); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if !res.Traced {
				out[res.Workload] = append(out[res.Workload], &res)
			}
		}
	}
	return out, nil
}

// sideStats summarises one side's runs of one metric: the median, and
// the interquartile range as a share of it (0 with fewer than 4 runs,
// where no spread can be told).
func sideStats(runs []*result, name string) (med, spread float64, vals []float64) {
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	med = median(append([]float64(nil), vals...))
	if len(vals) >= 4 && med != 0 {
		sorted := append([]float64(nil), vals...)
		spread = (quantile(sorted, 0.75) - quantile(sorted, 0.25)) / med
	}
	return med, spread, vals
}

// verdict classifies side b against baseline a for one metric. A change
// inside the bound is within; outside it, a side whose own runs spread
// wider than the bound makes the difference unresolved — unless every
// run of b beats every run of a.
func verdict(spec metricSpec, aMed, aSpread, bMed, bSpread float64, aVals, bVals []float64) (string, float64) {
	if aMed == 0 {
		return "unresolved", 0
	}
	worse := (bMed - aMed) / aMed // positive = b worse, for lower-is-better
	if spec.higher {
		worse = -worse
	}
	switch {
	case worse <= spec.bound && worse >= -spec.bound:
		return "within", worse
	case aSpread > spec.bound || bSpread > spec.bound:
		sort.Float64s(aVals)
		sort.Float64s(bVals)
		allBetter := bVals[len(bVals)-1] < aVals[0]
		if spec.higher {
			allBetter = bVals[0] > aVals[len(aVals)-1]
		}
		if allBetter {
			return "better", worse
		}
		return "unresolved", worse
	case worse > 0:
		return "worse", worse
	}
	return "better", worse
}

// compareCmd prints a verdict per (workload, metric) and returns the
// process exit code: non-zero on any worse verdict or on a higher
// failed_frac.
func compareCmd(aArg, bArg string) int {
	a, err := loadResults(aArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	b, err := loadResults(bArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return compareSets(a, b)
}

func compareSets(a, b map[string][]*result) int {
	code := 0
	for _, s := range specs() {
		ra, rb := a[s.name], b[s.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		fmt.Printf("== %s  (%d vs %d runs)\n", s.name, len(ra), len(rb))
		for _, spec := range endToEndSpecs {
			aMed, aSpread, aVals := sideStats(ra, spec.name)
			bMed, bSpread, bVals := sideStats(rb, spec.name)
			if len(aVals) == 0 || len(bVals) == 0 {
				continue
			}
			v, worse := verdict(spec, aMed, aSpread, bMed, bSpread, aVals, bVals)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("  %-18s %12.6g -> %-12.6g %-5s %+7.2f%% worse (bound %.0f%%, spread %.1f%% / %.1f%%)  %s\n",
				spec.name, aMed, bMed, spec.unit, 100*worse, 100*spec.bound, 100*aSpread, 100*bSpread, v)
		}
		fa, _, _ := sideStats(ra, "failed_frac")
		fb, _, _ := sideStats(rb, "failed_frac")
		v := "within"
		if fb > fa {
			v, code = "worse", 1
		}
		fmt.Printf("  %-18s %12.6g -> %-12.6g %-5s %s\n", "failed_frac", fa, fb, "ratio", v)
	}
	return code
}
