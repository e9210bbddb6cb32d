package main

// layerSpec is one per-layer metric of the traced run, as BENCHMARK.json
// declares it. README.md says which end-to-end metric each should move.
type layerSpec struct {
	name, unit string
	higher     bool // higher is better
}

// perLayerSpecs is the per-layer catalogue, grouped by the package whose
// public functions the spans are timed around.
var perLayerSpecs = []layerSpec{
	{"ingest.inject_ns_per_dgram", "ns", false},
	{"ingest.process_ns_per_rec", "ns", false},
	{"ingest.merge_us", "us", false},
	{"ingest.snapshot_us", "us", false},
	{"ingest.records", "count", true},
	{"ingest.datagrams", "count", true},
	{"ingest.dropped_frac", "ratio", false},
	{"ingest.seq_lost_frac", "ratio", false},
	{"ingest.duplicates", "count", false},
	{"ingest.coarse_batches", "count", false},
	{"packet.decode_ns_per_rec", "ns", false},
	{"prefix.lookup_ns", "ns", false},
	{"netflow.estimates_us", "us", false},
	{"netflow.bins_per_call", "count", false},
	{"netflow.linkobs_us", "us", false},
	{"loadtrack.observe_us", "us", false},
	{"control.step_ms", "ms", false},
	{"control.degraded_frac", "ratio", false},
	{"control.approximated_frac", "ratio", false},
	{"control.set_changed_frac", "ratio", false},
	{"control.explored_links", "count", true},
	{"core.iterations_per_step", "count", false},
	{"core.cold_iterations", "count", false},
	{"core.cold_solve_ms", "ms", false},
	{"core.ns_per_nnz_iter", "ns", false},
	{"core.nnz", "count", false},
	{"plan.compile_ms", "ms", false},
	{"plan.retune_us", "us", false},
	{"plan.coordinate_us", "us", false},
	{"plan.monitor_config_us", "us", false},
	{"routing.table_ms", "ms", false},
	{"routing.matrix_ms", "ms", false},
	{"state.append_us_p50", "us", false},
	{"state.append_us_p95", "us", false},
	{"state.append_bytes", "B", false},
	{"state.save_ms", "ms", false},
	{"state.save_bytes", "B", false},
	{"state.journal_bytes", "B", false},
	{"state.load_us", "us", false},
	{"state.open_journal_ms", "ms", false},
	{"control.snapshot_us", "us", false},
	{"control.snapshot_bytes", "B", false},
	{"control.restore_us", "us", false},
	{"state.restore_ms", "ms", false},
	{"daemon.interval_us", "us", false},
	{"bench.generate_ms", "ms", false},
	{"bench.driver_self_us", "us", false},
	{"bench.allocs_per_interval", "count", false},
	{"bench.gc_pause_ms", "ms", false},
	{"bench.peak_rss_mb", "MB", false},
	{"bench.interval_p95_ms", "ms", false},
	{"bench.trace_overhead_frac", "ratio", false},
}

// perLayer lists the per-layer metric names in catalogue order.
var perLayer = func() []string {
	names := make([]string, len(perLayerSpecs))
	for i, s := range perLayerSpecs {
		names[i] = s.name
	}
	return names
}()
