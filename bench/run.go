package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"netsamp/internal/control"
	"netsamp/internal/core"
	"netsamp/internal/daemon"
	"netsamp/internal/packet"
)

// fullSeconds is the -seconds value at which a workload runs its full
// interval count; BENCHMARK.json's run_seconds is this number.
const fullSeconds = 20

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a median or percentile (0 for a
	// count, ratio or single reading).
	N int `json:"n,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Intervals int               `json:"intervals"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// LayerShares is each layer's share of the interval root spans'
	// total time (traced run only).
	LayerShares map[string]float64 `json:"layer_shares,omitempty"`
	WallS       float64            `json:"wall_s"`
	Provenance  provenance         `json:"provenance"`

	tracer *tracer
}

// runOptions parametrises a run.
type runOptions struct {
	seed    uint64
	seconds float64
	trace   bool
	// stateRoot is where state directories are created (and removed).
	stateRoot string
	mutate    func(*intervalInput)
}

// budget scales a repeat phase's time budget with -seconds, like the
// interval counts: a full-length run spends all of d, a short one its
// share.
func (o runOptions) budget(d time.Duration) time.Duration {
	return time.Duration(float64(d) * min(1, o.seconds/fullSeconds))
}

// intervalsFor scales a workload's interval count with -seconds, so a
// run's work — and with it every count the run reports — is a function
// of its arguments alone, never of the machine's speed.
func intervalsFor(s *spec, seconds float64) int {
	n := int(float64(s.intervals)*seconds/fullSeconds + 0.5)
	return max(s.minIntervals, min(n, s.intervals))
}

// runWorkload executes one workload: the end-to-end run, or with
// opt.trace the traced run (an untraced pass over the first quarter of
// the intervals, then the same seed and inputs again under the tracer).
func runWorkload(s *spec, opt runOptions) (*result, error) {
	begin := time.Now()
	res := &result{Workload: s.name, Seed: opt.seed, Traced: opt.trace, Metrics: make(map[string]metric)}
	n := intervalsFor(s, opt.seconds)
	// The interval phase stops early only if the machine is so slow that
	// the contract's per-run time cap is at risk.
	deadline := begin.Add(150 * time.Second)
	var err error
	if opt.trace {
		err = res.traced(s, opt, max(s.minIntervals, n/4), deadline)
	} else {
		err = res.endToEnd(s, opt, n, deadline)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	res.WallS = time.Since(begin).Seconds()
	res.Provenance = gatherProvenance(opt.stateRoot)
	return res, nil
}

// execute runs one pass — cold, interval and restore phases — over a
// freshly set-up environment and returns it with the set-up times.
func execute(s *spec, opt runOptions, tr *tracer, n int, deadline time.Time) (*pass, []float64, error) {
	// Set-up is repeated (for 1s of a full-length run, at most 50 times)
	// and its median reported: a single reading of a few milliseconds is
	// mostly noise. The traced run does not report it and sets up once.
	var setupS []float64
	var e *env
	begin := time.Now()
	for rep := 0; rep < 50 && (rep == 0 || time.Since(begin) < opt.budget(time.Second)); rep++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(s, opt.stateRoot); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if opt.trace {
			break
		}
	}
	defer e.close()
	p, err := newPass(e, opt.seed, tr)
	if err != nil {
		return nil, nil, err
	}
	p.mutate = opt.mutate
	if err := p.cold(opt.budget(2 * time.Second)); err != nil {
		return nil, nil, err
	}
	if err := p.runIntervals(n, deadline); err != nil {
		return nil, nil, err
	}
	if tr != nil {
		p.decodeNs, p.lookupNs = replayDecode(p)
	}
	if err := p.restore(opt.budget(500 * time.Millisecond)); err != nil {
		return nil, nil, err
	}
	p.sreRatio = p.checkSRE()
	return p, setupS, nil
}

func (res *result) endToEnd(s *spec, opt runOptions, n int, deadline time.Time) error {
	p, setupS, err := execute(s, opt, nil, n, deadline)
	if err != nil {
		return err
	}
	res.Intervals, res.Attempted, res.Failed, res.Failures = len(p.intervalMs), p.attempted, p.failed, p.failures
	m := res.Metrics
	m["setup_s"] = metric{median(setupS), "s", len(setupS)}
	m["interval_p50_ms"] = metric{median(p.intervalMs), "ms", len(p.intervalMs)}
	m["interval_p95_ms"] = metric{quantile(p.intervalMs, 0.95), "ms", len(p.intervalMs)}
	m["close_p50_ms"] = metric{median(p.closeMs), "ms", len(p.closeMs)}
	m["records_per_s"] = metric{float64(p.records) / (float64(p.wallNs) / 1e9), "1/s", len(p.intervalMs)}
	m["cold_plan_ms"] = metric{batchMedian(p.coldMs), "ms", len(p.coldMs)}
	m["restore_ms"] = metric{median(p.restoreMs), "ms", len(p.restoreMs)}
	m["od_rel_err"] = metric{p.relErrSum / float64(p.relErrN), "ratio", int(p.relErrN)}
	m["failed_frac"] = metric{float64(p.failed) / float64(p.attempted), "ratio", p.attempted}
	m["sre_ratio"] = metric{p.sreRatio, "ratio", 0}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB", 0}
	m["live_heap_mb"] = metric{p.liveHeapMB, "MB", 0}
	return nil
}

func (res *result) traced(s *spec, opt runOptions, n int, deadline time.Time) error {
	base, _, err := execute(s, opt, nil, n, deadline)
	if err != nil {
		return err
	}
	tr := newTracer()
	p, _, err := execute(s, opt, tr, n, deadline)
	if err != nil {
		return err
	}
	res.tracer = tr
	res.Intervals, res.Attempted, res.Failed, res.Failures = len(p.intervalMs), p.attempted, p.failed, p.failures
	res.LayerShares = tr.layerShares()
	coldIters, nnz := p.split.iterations, p.split.nnz
	compileMs, solveMs := p.split.compileMs, p.split.solveMs

	m := res.Metrics
	med := func(name, span string, scale float64, unit string) {
		ns, _ := tr.durations(span)
		m[name] = metric{median(ns) / scale, unit, len(ns)}
	}
	perUnit := func(name, span, unit string) {
		ns, work := tr.durations(span)
		total := 0.0
		for _, d := range ns {
			total += d
		}
		v := 0.0
		if work > 0 {
			v = total / float64(work)
		}
		m[name] = metric{v, unit, len(ns)}
	}
	meanWork := func(name, span, unit string) {
		ns, work := tr.durations(span)
		v := 0.0
		if len(ns) > 0 {
			v = float64(work) / float64(len(ns))
		}
		m[name] = metric{v, unit, len(ns)}
	}
	count := func(name string, v float64, unit string) { m[name] = metric{v, unit, 0} }
	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	v := p.lastView
	perUnit("ingest.inject_ns_per_dgram", "ingest.inject", "ns")
	perUnit("ingest.process_ns_per_rec", "ingest.process", "ns")
	med("ingest.merge_us", "ingest.merge", 1e3, "us")
	med("ingest.snapshot_us", "ingest.snapshot", 1e3, "us")
	count("ingest.records", float64(v.Records), "count")
	count("ingest.datagrams", float64(v.Datagrams), "count")
	count("ingest.dropped_frac", frac(int(v.Dropped.Total()), int(v.Records)), "ratio")
	count("ingest.seq_lost_frac", frac(int(v.LostRecords), int(v.Records+v.LostRecords)), "ratio")
	count("ingest.duplicates", float64(v.Duplicates), "count")
	var coarse uint64
	for _, sh := range v.Shards {
		coarse += sh.CoarseBatches
	}
	count("ingest.coarse_batches", float64(coarse), "count")

	count("packet.decode_ns_per_rec", p.decodeNs, "ns")
	count("prefix.lookup_ns", p.lookupNs, "ns")

	med("netflow.estimates_us", "netflow.estimates", 1e3, "us")
	m["netflow.bins_per_call"] = metric{mean(p.binsPerCall), "count", len(p.binsPerCall)}
	med("netflow.linkobs_us", "netflow.linkobs", 1e3, "us")
	med("loadtrack.observe_us", "loadtrack.observe", 1e3, "us")

	med("control.step_ms", "control.step", 1e6, "ms")
	count("control.degraded_frac", frac(p.steps.degraded, p.steps.n), "ratio")
	count("control.approximated_frac", frac(p.steps.approximated, p.steps.n), "ratio")
	count("control.set_changed_frac", frac(p.steps.setChanged, p.steps.n), "ratio")
	count("control.explored_links", frac(p.steps.explored, p.steps.n), "count")

	count("core.iterations_per_step", frac(p.steps.iterations, p.steps.solved), "count")
	count("core.cold_iterations", float64(coldIters), "count")
	count("core.cold_solve_ms", solveMs, "ms")
	count("core.ns_per_nnz_iter", solveMs*1e6/float64(nnz*max(1, coldIters)), "ns")
	count("core.nnz", float64(nnz), "count")

	count("plan.compile_ms", compileMs, "ms")
	med("plan.retune_us", "plan.retune", 1e3, "us")
	med("plan.coordinate_us", "plan.coordinate", 1e3, "us")
	med("plan.monitor_config_us", "plan.monitor_config", 1e3, "us")

	med("routing.table_ms", "routing.table", 1e6, "ms")
	med("routing.matrix_ms", "routing.matrix", 1e6, "ms")

	appendNs, _ := tr.durations("state.append")
	m["state.append_us_p50"] = metric{median(appendNs) / 1e3, "us", len(appendNs)}
	m["state.append_us_p95"] = metric{quantile(appendNs, 0.95) / 1e3, "us", len(appendNs)}
	meanWork("state.append_bytes", "state.append", "B")
	med("state.save_ms", "state.save", 1e6, "ms")
	count("state.save_bytes", float64(p.saveBytes), "B")
	count("state.journal_bytes", float64(p.journalBytes+8), "B")

	med("state.load_us", "state.load", 1e3, "us")
	med("state.open_journal_ms", "state.open_journal", 1e6, "ms")
	med("control.snapshot_us", "control.snapshot", 1e3, "us")
	count("control.snapshot_bytes", float64(p.snapshotBytes), "B")
	med("control.restore_us", "control.restore", 1e3, "us")
	m["state.restore_ms"] = metric{median(p.restoreMs), "ms", len(p.restoreMs)}

	daemonUs, err := daemonReference(s, opt)
	if err != nil {
		return err
	}
	count("daemon.interval_us", daemonUs, "us")

	_, self := tr.selfTimes()
	m["bench.generate_ms"] = metric{median(p.generateMs), "ms", len(p.generateMs)}
	m["bench.driver_self_us"] = metric{median(self) / 1e3, "us", len(self)}
	m["bench.allocs_per_interval"] = metric{median(p.allocs), "count", len(p.allocs)}
	count("bench.gc_pause_ms", p.gcPauseMs, "ms")
	count("bench.peak_rss_mb", peakRSSMB(), "MB")
	m["bench.interval_p95_ms"] = metric{quantile(base.intervalMs, 0.95), "ms", len(base.intervalMs)}
	count("bench.trace_overhead_frac", median(p.intervalMs)/median(base.intervalMs)-1, "ratio")
	return nil
}

// replayDecode times the two halves of the collector's per-record work
// from outside, over the last interval's datagrams: decoding every
// record, then classifying every decoded key. Each is repeated at
// least three times and until 20ms of work has been timed; the fastest
// repeat is reported.
func replayDecode(p *pass) (decodeNs, lookupNs float64) {
	in := p.lastInput
	if in == nil || in.records == 0 {
		return 0, 0
	}
	recs := make([]packet.Record, 0, in.records)
	best := func(f func()) float64 {
		fastest := 0.0
		for rep, total := 0, time.Duration(0); rep < 3 || total < 20*time.Millisecond; rep++ {
			t0 := time.Now()
			f()
			d := time.Since(t0)
			total += d
			if ns := float64(d) / float64(in.records); fastest == 0 || ns < fastest {
				fastest = ns
			}
		}
		return fastest
	}
	decodeNs = best(func() {
		recs = recs[:0]
		var h packet.Header
		for _, b := range in.dgrams {
			if h.DecodeFromBytes(b) != nil {
				continue
			}
			for off := packet.HeaderSize; off+packet.RecordSize <= len(b); off += packet.RecordSize {
				recs = recs[:len(recs)+1]
				// Cannot fail: the loop bound checked the length and the
				// collector accepted the version.
				_ = recs[len(recs)-1].DecodeFromBytes(b[off:])
			}
		}
	})
	hits := 0
	lookupNs = best(func() {
		for i := range recs {
			if _, ok := p.w.table.Lookup(recs[i].Key.Dst); ok {
				hits++
			}
		}
	})
	if hits == 0 {
		return decodeNs, 0
	}
	return decodeNs, lookupNs
}

// daemonReference times the program's own serve loop (daemon.Open + Run
// on its synthesised GEANT world) per interval. It is a reference point
// only: until the serve loop consumes ingest estimates, nothing in the
// interval pipeline moves it.
func daemonReference(s *spec, opt runOptions) (float64, error) {
	if s.daemonIntervals == 0 {
		return 0, nil
	}
	dir, err := os.MkdirTemp(opt.stateRoot, "daemon-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	loop, err := daemon.Open(daemon.Config{
		Dir:         dir,
		Seed:        opt.seed,
		Theta:       s.theta,
		Intervals:   s.daemonIntervals,
		Workers:     1,
		SmoothAlpha: 0.5,
		SwitchGain:  0.01,
		ReviveAfter: 2,
		Robust:      control.RobustOptions{Mode: core.RobustPessimistic, ExplorationFrac: 0.1},
	})
	if err != nil {
		return 0, err
	}
	defer loop.Close()
	if err := loop.Run(context.Background(), nil); err != nil {
		return 0, err
	}
	return float64(time.Since(t0)) / 1e3 / float64(s.daemonIntervals), nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// writeResult stores a run under dir as <workload>.json, and the traced
// run's spans beside it as <workload>.trace.jsonl.
func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := res.Workload
	if res.Traced {
		if err := res.tracer.writeJSONL(filepath.Join(dir, name+".trace.jsonl")); err != nil {
			return err
		}
		name += ".trace"
	}
	return writeJSON(filepath.Join(dir, name+".json"), res)
}
