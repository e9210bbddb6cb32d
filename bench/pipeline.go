package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"netsamp/internal/control"
	"netsamp/internal/core"
	"netsamp/internal/ingest"
	"netsamp/internal/loadtrack"
	"netsamp/internal/netflow"
	"netsamp/internal/plan"
	"netsamp/internal/routing"
	"netsamp/internal/state"
	"netsamp/internal/topology"
)

// injectBatch is how many datagrams the driver offers between drains:
// a quarter of a 1024-slot ring, so the ring never fills even when one
// shard receives the whole batch.
const injectBatch = 256

const journalName = "decisions.nsj"

// sreMaxRho bounds the effective rates the end-of-run SRE check looks
// at. The prediction (1−ρ)/ρ·E[1/S] is the variance of one Bernoulli(ρ)
// draw per packet; monitors sampling independently at p_1..p_m have
// variance Σp_i(1−p_i) instead of ρ(1−ρ), and the two part ways as ρ
// grows (×1.3 at ρ = 0.3 over three monitors, unbounded as ρ → 1, where
// geant-flood deliberately drives its small pairs).
const sreMaxRho = 0.3

// env is what the set-up phase produces: the world, the collector and
// an open state directory.
type env struct {
	w       *world
	col     *ingest.Collector
	dir     string
	journal *state.Journal
	snaps   *state.SnapshotStore
}

// setup is the set-up phase: topology, routing, traffic model, prefix
// table, collector and state directory.
func setup(s *spec, stateRoot string) (*env, error) {
	w, err := buildWorld(s)
	if err != nil {
		return nil, err
	}
	ones := make([]float64, len(w.matrix.Pairs))
	for k := range ones {
		ones[k] = 1
	}
	// ingest.Config.Rho is fixed at New while the deployed rates move
	// every interval, so the collector counts at ρ = 1 and the driver
	// renormalises Sampled by the deployed ρ itself.
	col, err := ingest.New(ingest.Config{
		Shards:          4,
		RingSize:        1024,
		IntervalSeconds: intervalSec,
		Rho:             ones,
		Classifier:      w.classify,
	})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, "state-"+s.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, col: col, dir: dir}
	if e.snaps, err = state.OpenSnapshots(dir); err != nil {
		e.close()
		return nil, err
	}
	if e.journal, _, err = state.OpenJournal(filepath.Join(dir, journalName)); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// close releases the collector and removes the state directory.
func (e *env) close() {
	if e.journal != nil {
		e.journal.Close()
	}
	e.col.Close()
	os.RemoveAll(e.dir)
}

// controllerOptions is the one controller configuration every workload
// runs: the serve command's defaults in robust pessimistic posture.
func controllerOptions(w *world) control.Options {
	return control.Options{
		Budget:       w.budget,
		SmoothAlpha:  0.5,
		SwitchGain:   0.01,
		ReviveAfter:  2,
		SolveTimeout: 60 * time.Second,
		Robust:       control.RobustOptions{Mode: core.RobustPessimistic, ExplorationFrac: 0.1},
		Approx:       control.ApproxPolicy{Enabled: true},
	}
}

// pass is one execution of a workload: cold phase, interval phase,
// restore phase. The traced run is a second pass over fresh state with
// a tracer attached.
type pass struct {
	*env
	spec *spec
	gen  *generator
	tr   *tracer
	opts control.Options
	ctrl *control.Controller
	// mutate, when non-nil, edits an interval's input after generation
	// (tests corrupt a datagram or falsify the ground truth with it).
	mutate func(*intervalInput)

	// The driver's view of the network.
	matrix   *routing.Matrix
	cands    []topology.LinkID
	deployed map[topology.LinkID]float64
	inv      []float64
	lastStep control.StepInput

	// Scratch indexed by LinkID / pair.
	loads, relErr []float64
	observed      []bool
	rho, est      []float64
	prevDrops     uint64
	prevMalformed uint64

	// Traced-run shadows.
	shadow     *loadtrack.Tracker
	shadowLo   []float64
	shadowHi   []float64
	coldComp   *plan.Compiled
	split      coldSplit
	allocs     []float64
	gcPauseMs  float64
	generateMs []float64

	// Results.
	intervalMs, closeMs []float64
	coldMs, restoreMs   []float64
	records             int64
	wallNs              int64
	attempted, failed   int
	failures            []string
	relErrSum           float64
	relErrN             int64
	sreRealized         float64
	srePredicted        float64
	sreRatio            float64
	liveHeapMB          float64
	steps               stepStats
	binsPerCall         []float64
	lastView            ingest.View
	journalBytes        int64
	saveBytes           int
	snapshotBytes       int
	lastInput           *intervalInput
	// decodeNs and lookupNs are the traced run's replay of the last
	// interval's datagrams (see replayDecode).
	decodeNs, lookupNs float64
}

// stepStats accumulates what the controller's decisions said.
type stepStats struct {
	n, degraded, approximated, setChanged int
	explored, iterations, solved          int
}

func newPass(e *env, seed uint64, tr *tracer) (*pass, error) {
	gen, err := newGenerator(e.w, seed)
	if err != nil {
		return nil, err
	}
	nl, np := e.w.graph.NumLinks(), len(e.w.matrix.Pairs)
	return &pass{
		env:      e,
		spec:     e.w.spec,
		gen:      gen,
		tr:       tr,
		opts:     controllerOptions(e.w),
		matrix:   e.w.matrix,
		cands:    e.w.cands,
		loads:    make([]float64, nl),
		relErr:   make([]float64, nl),
		observed: make([]bool, nl),
		rho:      make([]float64, np),
		est:      make([]float64, np),
	}, nil
}

func (p *pass) fail(t int, format string, args ...any) {
	if len(p.failures) < 8 {
		p.failures = append(p.failures, fmt.Sprintf("interval %d: ", t)+fmt.Sprintf(format, args...))
	}
}

// cold is the cold phase: a fresh controller's first decision on the
// true loads and sizes, repeated on fresh controllers until the budget
// (2s in a full-length run) or 10000 repeats have elapsed. The last
// controller stays on as the live one and its plan is what interval 0
// deploys.
func (p *pass) cold(budget time.Duration) error {
	sizes := p.gen.sizes()
	p.inv = make([]float64, len(sizes))
	for k, s := range sizes {
		p.inv[k] = 1 / float64(s)
	}
	in := control.StepInput{
		Matrix:     p.matrix,
		Loads:      p.w.baseLoads,
		Candidates: p.cands,
		InvSizes:   p.inv,
		Workers:    1,
	}
	begin := time.Now()
	for rep := 0; rep < 10000 && (rep == 0 || time.Since(begin) < budget); rep++ {
		t0 := time.Now()
		c, err := control.New(p.opts)
		if err != nil {
			return err
		}
		d, err := c.StepResilient(context.Background(), in)
		if err != nil {
			return fmt.Errorf("cold step: %w", err)
		}
		p.coldMs = append(p.coldMs, float64(time.Since(t0))/1e6)
		p.ctrl, p.deployed = c, d.Plan
		if p.tr != nil {
			// The traced run times the compile/solve split instead.
			return p.timeColdSplit(plan.Input{
				Matrix:       in.Matrix,
				Loads:        in.Loads,
				Candidates:   in.Candidates,
				InvMeanSizes: in.InvSizes,
				Budget:       p.w.budget,
			})
		}
	}
	return nil
}

// coldSplit is the traced run's view of the cold phase: the same
// instance compiled and solved directly, so that compile and solve are
// timed apart.
type coldSplit struct {
	compileMs, solveMs float64
	iterations, nnz    int
}

func (p *pass) timeColdSplit(in plan.Input) error {
	t0 := time.Now()
	comp, err := plan.Compile(in)
	if err != nil {
		return err
	}
	t1 := time.Now()
	var sol core.Solution
	if err := comp.Solver().SolveInto(&sol, core.Options{}); err != nil {
		return err
	}
	p.split = coldSplit{
		compileMs:  float64(t1.Sub(t0)) / 1e6,
		solveMs:    float64(time.Since(t1)) / 1e6,
		iterations: sol.Stats.Iterations,
		nnz:        comp.Solver().NNZ(),
	}
	p.coldComp = comp
	return nil
}

// runIntervals is the interval phase: one closed loop, interval t+1
// starts when interval t's plan is durable.
func (p *pass) runIntervals(n int, deadline time.Time) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pauseBefore := ms.PauseTotalNs
	for t := 0; t < n; t++ {
		if t >= p.spec.minIntervals && time.Now().After(deadline) {
			break
		}
		g0 := time.Now()
		in, err := p.gen.interval(t, p.deployed)
		if err != nil {
			return err
		}
		if p.mutate != nil {
			p.mutate(in)
		}
		p.generateMs = append(p.generateMs, float64(time.Since(g0))/1e6)
		p.attempted++
		ok, err := p.interval(in)
		if err != nil {
			// An interval that errors fails and misses every latency.
			p.fail(t, "%v", err)
			ok = false
		}
		if !ok {
			p.failed++
		}
		p.lastInput = in
	}
	runtime.ReadMemStats(&ms)
	p.gcPauseMs = float64(ms.PauseTotalNs-pauseBefore) / 1e6
	// What the process retains once the interval phase's garbage is gone:
	// collector bins, controller state, journal index, generator buffers.
	// Two collections, because a sync.Pool's contents survive the first
	// in its victim cache and how full the pools are depends on when the
	// previous collection happened to run.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.liveHeapMB = float64(ms.HeapAlloc) / (1 << 20)
	return nil
}

// interval runs one interval's pipeline from the first datagram offered
// to the plan made durable, then checks it. It reports whether every
// check passed.
func (p *pass) interval(in *intervalInput) (bool, error) {
	tr := p.tr
	ctx := context.Background()
	var mem runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&mem)
	}
	mallocsBefore := mem.Mallocs
	root := tr.beginRoot(in.t)
	t0 := time.Now()
	tLast := t0

	// Ingest: offer a batch, drain every shard, repeat.
	for lo := 0; lo < len(in.dgrams); lo += injectBatch {
		hi := min(lo+injectBatch, len(in.dgrams))
		sp := tr.begin("ingest.inject")
		for _, b := range in.dgrams[lo:hi] {
			p.col.Inject(b)
		}
		tr.end(sp, int64(hi-lo))
		if hi == len(in.dgrams) {
			tLast = time.Now()
		}
		sp = tr.begin("ingest.process")
		recs := p.col.ProcessAllAvailable()
		tr.end(sp, int64(recs))
	}
	sp := tr.begin("ingest.merge")
	err := p.col.MergeNow()
	tr.end(sp, 0)
	if err != nil {
		return false, err
	}
	sp = tr.begin("ingest.snapshot")
	view := p.col.Snapshot()
	invErr := view.CheckInvariant()
	tr.end(sp, 0)

	// A failed link is an IGP event the controller hears about at once:
	// routing is recomputed before the estimates are renormalised, so ρ
	// is taken over the paths the interval's traffic actually used.
	matrix, cands := p.matrix, p.cands
	if in.failed >= 0 {
		sp = tr.begin("routing.table")
		tbl := routing.ComputeTable(p.w.graph)
		tr.end(sp, 0)
		sp = tr.begin("routing.matrix")
		matrix, err = routing.BuildMatrixECMP(tbl, p.matrix.Pairs)
		if err == nil {
			cands = matrix.LinkSet()
		}
		tr.end(sp, 0)
		if err != nil {
			return false, err
		}
	}

	// Estimates: the interval's bin, renormalised by the ρ the deployed
	// plan achieved on the monitors that were up.
	sp = tr.begin("netflow.estimates")
	bins := p.col.Estimates()
	tr.end(sp, int64(len(bins)))
	p.binsPerCall = append(p.binsPerCall, float64(len(bins)))
	var sampled []uint64
	for i := len(bins) - 1; i >= 0; i-- {
		if bins[i].Start == in.start {
			sampled = bins[i].Sampled
			break
		}
	}
	up := make(map[topology.LinkID]float64, len(p.deployed))
	for lid, r := range p.deployed {
		up[lid] = r
	}
	delete(up, in.failed)
	for _, lid := range in.down {
		delete(up, lid)
	}
	sp = tr.begin("plan.effective_rates")
	plan.EffectiveRatesInto(p.rho, matrix, up, nil)
	tr.end(sp, 0)
	loss := view.LossFraction
	for k := range p.est {
		p.est[k] = 0
		if sampled == nil || !(p.rho[k] > 0) {
			continue
		}
		p.est[k] = float64(sampled[k]) / (p.rho[k] * (1 - loss))
		if sampled[k] > 0 {
			// Next interval's utility parameter E[1/S] follows the
			// estimate; an unsampled pair keeps its previous value.
			p.inv[k] = math.Min(1, 1/p.est[k])
		}
	}

	// Link-load observations from the monitors' sample counters.
	sp = tr.begin("netflow.linkobs")
	for i := range p.loads {
		p.loads[i], p.relErr[i], p.observed[i] = 0, math.Inf(1), false
	}
	for lid, r := range up {
		load, rel, _ := netflow.LinkLoadObservation(in.monSampled[lid], r, 0, intervalSec)
		p.loads[lid], p.relErr[lid], p.observed[lid] = load, rel, !math.IsInf(rel, 1)
	}
	tr.end(sp, int64(len(up)))

	// Decide.
	step := control.StepInput{
		Matrix:        matrix,
		Loads:         p.loads,
		Candidates:    cands,
		InvSizes:      p.inv,
		Workers:       1,
		Down:          in.down,
		Observed:      p.observed,
		LoadRelErr:    p.relErr,
		TransportLoss: loss,
		FailSolve:     in.failSolve,
	}
	sp = tr.begin("control.step")
	d, err := p.ctrl.StepResilient(ctx, step)
	iters := 0
	if err == nil && d.Solution != nil {
		iters = d.Solution.Stats.Iterations
	}
	tr.end(sp, int64(iters))
	if err != nil {
		return false, err
	}

	// Coordinate: the per-monitor filter configuration the plan deploys.
	sp = tr.begin("plan.coordinate")
	coord := plan.Coordinate(matrix, d.Plan)
	tr.end(sp, 0)
	active := topology.SortedKeys(d.Plan)
	sp = tr.begin("plan.monitor_config")
	for _, lid := range active {
		coord.MonitorConfig(lid)
	}
	tr.end(sp, int64(len(active)))

	// Durable: journal the decision, checkpoint on cadence.
	sp = tr.begin("state.encode")
	rec := encodeDecision(in.t, d)
	tr.end(sp, int64(len(rec)))
	sp = tr.begin("state.append")
	err = p.journal.Append(rec)
	tr.end(sp, int64(len(rec)))
	if err != nil {
		return false, err
	}
	p.journalBytes += int64(len(rec)) + 8
	if (in.t+1)%p.spec.checkpointEvery == 0 {
		if err := p.checkpoint(in.t); err != nil {
			return false, err
		}
	}
	tEnd := time.Now()
	tr.endRoot(root)

	if tr != nil {
		runtime.ReadMemStats(&mem)
		p.allocs = append(p.allocs, float64(mem.Mallocs-mallocsBefore))
		if err := p.shadowMeasure(step); err != nil {
			return false, err
		}
	}
	p.intervalMs = append(p.intervalMs, float64(tEnd.Sub(t0))/1e6)
	p.closeMs = append(p.closeMs, float64(tEnd.Sub(tLast))/1e6)
	p.wallNs += int64(tEnd.Sub(t0))
	p.records += int64(in.records)
	p.matrix, p.cands, p.deployed = matrix, cands, d.Plan
	p.lastStep, p.lastView = step, view

	return p.check(in, view, invErr, sampled, d), nil
}

// checkpoint snapshots the controller and saves it with the interval it
// covers.
func (p *pass) checkpoint(t int) error {
	sp := p.tr.begin("control.snapshot")
	blob, err := p.ctrl.Snapshot().MarshalBinary()
	p.tr.end(sp, int64(len(blob)))
	if err != nil {
		return err
	}
	var e state.Encoder
	e.U32(uint32(t))
	e.Bytes(blob)
	sp = p.tr.begin("state.save")
	err = p.snaps.Save(e.Data())
	p.tr.end(sp, int64(len(e.Data())))
	p.snapshotBytes, p.saveBytes = len(blob), len(e.Data())
	return err
}

// shadowMeasure times, outside the interval's root span, two layer calls
// the controller makes internally: a load-tracker update and a plan
// retune, each on the interval's own observations.
func (p *pass) shadowMeasure(step control.StepInput) error {
	if p.shadow == nil {
		p.shadow = loadtrack.MustNew(len(step.Loads), loadtrack.Config{Alpha: p.opts.SmoothAlpha})
		p.shadowLo = make([]float64, len(step.Loads))
		p.shadowHi = make([]float64, len(step.Loads))
		// Like the controller's tracker, the shadow starts from the cold
		// phase's load table.
		if err := p.shadow.Observe(p.w.baseLoads, nil, nil); err != nil {
			return err
		}
	}
	sp := p.tr.begin("loadtrack.observe")
	err := p.shadow.Observe(step.Loads, step.LoadRelErr, step.Observed)
	p.shadow.BoundsInto(p.shadowLo, p.shadowHi)
	p.tr.end(sp, int64(len(step.Loads)))
	if err != nil {
		return err
	}
	// The cold split's compiled plan stands in for a cache entry; it is
	// retuned to the tracker's means exactly as a cache hit would be.
	means := make([]float64, p.shadow.Len())
	p.shadow.MeansInto(means)
	sp = p.tr.begin("plan.retune")
	err = p.coldComp.Retune(plan.Input{
		Matrix:       p.w.matrix,
		Loads:        means,
		Candidates:   p.w.cands,
		InvMeanSizes: step.InvSizes,
		Budget:       p.w.budget,
	})
	p.tr.end(sp, 0)
	return err
}

// check runs the per-interval correctness checks and feeds the error
// accumulators.
func (p *pass) check(in *intervalInput, view ingest.View, invErr error, sampled []uint64, d *control.Decision) bool {
	ok := true
	bad := func(format string, args ...any) {
		ok = false
		p.fail(in.t, format, args...)
	}
	if invErr != nil {
		bad("%v", invErr)
	}
	if n := view.Dropped.Total() - p.prevDrops; n != 0 {
		bad("collector dropped %d records", n)
	}
	if n := view.MalformedDatagrams - p.prevMalformed; n != 0 {
		bad("collector rejected %d datagrams", n)
	}
	p.prevDrops, p.prevMalformed = view.Dropped.Total(), view.MalformedDatagrams
	if sampled == nil && in.records > 0 {
		bad("no estimate bin starts at %d", in.start)
	}
	for k, want := range in.delivered {
		if sampled != nil && sampled[k] != want {
			bad("pair %d: collector counted %d sampled packets, generator delivered %d", k, sampled[k], want)
			break
		}
	}
	if p.gen.wire {
		for _, e := range view.Exporters {
			if got, want := e.Seq.Received+e.Seq.LostRecords, in.seqExpect[e.ID]; got != want {
				bad("exporter %d: received %d + lost %d, want %d", e.ID, e.Seq.Received, e.Seq.LostRecords, want)
				break
			}
		}
	}
	if len(d.Plan) == 0 {
		bad("empty plan")
	}
	for lid, r := range d.Plan {
		if math.IsNaN(r) || r < 0 || r > 1 {
			bad("link %d: rate %v outside [0, 1]", lid, r)
			break
		}
	}
	switch {
	case d.Degraded:
		if !in.failSolve && len(in.down) == 0 && in.failed < 0 {
			bad("degraded with no fault injected")
		}
	case d.Solution == nil:
		bad("decision carries no solution")
	case d.Approximated:
		if math.IsNaN(d.ApproxGap) || math.IsInf(d.ApproxGap, 0) {
			bad("approximated with gap %v", d.ApproxGap)
		}
	case !d.Solution.Stats.Converged:
		bad("solve did not converge in %d iterations", d.Solution.Stats.Iterations)
	}

	p.steps.n++
	if d.Degraded {
		p.steps.degraded++
	}
	if d.Approximated {
		p.steps.approximated++
	}
	if d.SetChanged {
		p.steps.setChanged++
	}
	p.steps.explored += len(d.Explored)
	if d.Solution != nil {
		p.steps.iterations += d.Solution.Stats.Iterations
		p.steps.solved++
	}
	for k, s := range in.size {
		size := float64(s)
		rel := math.Abs(p.est[k]-size) / size
		p.relErrSum += rel
		p.relErrN++
		if rho := p.rho[k]; rho > 0 && rho <= sreMaxRho {
			p.sreRealized += rel * rel
			p.srePredicted += (1 - rho) / rho / size
		}
	}
	return ok
}

// encodeDecision serialises a decision the way the daemon journals one:
// links ascending, floats as IEEE-754 bits, so equal decisions encode to
// equal bytes.
func encodeDecision(t int, d *control.Decision) []byte {
	var e state.Encoder
	e.U16(2)
	e.U32(uint32(t))
	var flags uint8
	if d.Degraded {
		flags |= 1
	}
	if d.SetChanged {
		flags |= 2
	}
	if d.Approximated {
		flags |= 4
	}
	e.U8(flags)
	e.F64(d.Gain)
	e.U32(uint32(d.Uncovered))
	e.U32(uint32(len(d.Excluded)))
	for _, lid := range d.Excluded {
		e.I64(int64(lid))
	}
	links := topology.SortedKeys(d.Plan)
	e.U32(uint32(len(links)))
	for _, lid := range links {
		e.I64(int64(lid))
		e.F64(d.Plan[lid])
	}
	e.U32(uint32(len(d.Explored)))
	for _, lid := range d.Explored {
		e.I64(int64(lid))
	}
	return e.Data()
}

// restore is the restore phase. After a final checkpoint it reopens the
// state directory the way a restarted process would — newest snapshot,
// decoded controller state, a controller restored from it, the journal —
// at least five times and until the budget (0.5s in a full-length run)
// or 2000 repeats have elapsed, and then checks that the restored
// controller's next decision encodes bit-identically to the live
// controller's on the same input.
func (p *pass) restore(budget time.Duration) error {
	if p.lastInput == nil {
		return errors.New("no interval completed")
	}
	t := p.lastInput.t
	if err := p.checkpoint(t); err != nil {
		return err
	}
	err := p.journal.Close()
	p.journal = nil
	if err != nil {
		return err
	}
	p.attempted++
	live, err := p.ctrl.StepResilient(context.Background(), p.lastStep)
	if err != nil {
		return err
	}
	want := encodeDecision(t+1, live)

	// A restarted process restores into an empty heap. This one still
	// holds the interval phase — the live controller's plan cache, the
	// generator's buffers — and every collection the loop's own garbage
	// triggers would mark all of it at the restore's expense. Let go of
	// it first.
	p.ctrl, p.gen, p.lastInput, p.coldComp = nil, nil, nil, nil
	runtime.GC()

	var restored *control.Controller
	begin := time.Now()
	for rep := 0; rep < 2000 && (rep < 5 || time.Since(begin) < budget); rep++ {
		t0 := time.Now()
		sp := p.tr.begin("state.load")
		snaps, err := state.OpenSnapshots(p.dir)
		if err != nil {
			return err
		}
		payload, _, err := snaps.Load()
		p.tr.end(sp, int64(len(payload)))
		if err != nil {
			return err
		}
		sp = p.tr.begin("control.restore")
		dec := state.NewDecoder(payload)
		at := int(dec.U32())
		blob := dec.Bytes()
		if err := dec.Finish(); err != nil {
			return err
		}
		var st control.State
		if err := st.UnmarshalBinary(blob); err != nil {
			return err
		}
		c, err := control.New(p.opts)
		if err != nil {
			return err
		}
		err = c.Restore(st)
		p.tr.end(sp, int64(len(blob)))
		if err != nil {
			return err
		}
		sp = p.tr.begin("state.open_journal")
		j, recs, err := state.OpenJournal(filepath.Join(p.dir, journalName))
		p.tr.end(sp, int64(len(recs)))
		if err != nil {
			return err
		}
		p.restoreMs = append(p.restoreMs, float64(time.Since(t0))/1e6)
		j.Close()
		if at != t {
			return fmt.Errorf("newest checkpoint covers interval %d, want %d", at, t)
		}
		restored = c
	}

	again, err := restored.StepResilient(context.Background(), p.lastStep)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, encodeDecision(t+1, again)) {
		p.failed++
		p.fail(t+1, "restored controller's decision differs from the live controller's")
	}
	return nil
}

// checkSRE is the end-of-run check that the realised squared relative
// error matches the paper's prediction (1−ρ)/ρ·E[1/S].
func (p *pass) checkSRE() float64 {
	p.attempted++
	ratio := p.sreRealized / p.srePredicted
	if !(ratio >= 0.5 && ratio <= 2) {
		p.failed++
		p.fail(p.attempted, "realised/predicted SRE = %.3f outside [0.5, 2]", ratio)
	}
	return ratio
}
