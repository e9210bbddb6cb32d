package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"netsamp/internal/control"
	"netsamp/internal/core"
	"netsamp/internal/engine"
	"netsamp/internal/plan"
	"netsamp/internal/topology"
)

// The scale suite: end-to-end solves of generated ISP-like instances at
// 1k/5k/10k links, timed against the 5-minute measurement interval the
// paper's operational story assumes. Each size reports wall time,
// solver iterations, steady-state allocations and peak RSS, plus the
// deadline policy's routing decision (exact or Frank-Wolfe, with the
// duality-gap certificate) and a truncated-solve check of the sharded
// kernels' bit-identity across worker counts.

// scaleOptions parameterizes one scale-suite run.
type scaleOptions struct {
	seed         uint64
	links        []int
	pairsPerLink int           // 0 = generator default (100·links, capped)
	budgetFrac   float64       // θ as a fraction of the max sampled rate
	interval     time.Duration // the deadline the policy defends
	workers      int           // shard pool size for the timed solve
	checkWorkers []int         // worker counts for the bit-identity check
	checkIters   int           // truncated iterations for that check
}

func defaultScaleOptions() scaleOptions {
	return scaleOptions{
		seed:         1,
		links:        []int{1000, 5000, 10000},
		budgetFrac:   0.05,
		interval:     5 * time.Minute,
		checkWorkers: []int{2, 4},
		checkIters:   8,
	}
}

// scaleResult is one instance size's measured outcome.
type scaleResult struct {
	Links, Pairs, NNZ int
	GenWall           time.Duration // generator + CSR compile
	SolveWall         time.Duration
	Iterations        int
	Approximated      bool // deadline policy routed to Frank-Wolfe
	GapBound          float64
	Allocs            uint64 // mallocs during the timed solve (steady state)
	PeakRSS           uint64 // bytes, /proc/self/status VmHWM
	ShardIdentical    bool
}

// runScaleSuite measures every requested size. The per-size work is
// deliberately sequential — the point is single-machine wall time per
// solve, not throughput of the suite.
func runScaleSuite(opt scaleOptions, logf func(string, ...any)) ([]scaleResult, error) {
	results := make([]scaleResult, 0, len(opt.links))
	for _, links := range opt.links {
		res, err := runScaleSize(opt, links, logf)
		if err != nil {
			return nil, fmt.Errorf("scale: %d links: %w", links, err)
		}
		results = append(results, res)
	}
	return results, nil
}

func runScaleSize(opt scaleOptions, links int, logf func(string, ...any)) (scaleResult, error) {
	var res scaleResult
	cfg := topology.ScaleConfig{Seed: opt.seed, Links: links, ECMP: true}
	if opt.pairsPerLink > 0 {
		cfg.Pairs = opt.pairsPerLink * links
	}
	genStart := time.Now()
	inst, err := topology.GenerateScale(cfg)
	if err != nil {
		return res, err
	}
	budget := opt.budgetFrac * inst.MaxSampledRate()
	cp, err := plan.BuildScale(inst, budget, nil)
	if err != nil {
		return res, err
	}
	s, err := core.NewSolver(cp)
	if err != nil {
		return res, err
	}
	res.Links = len(inst.Loads)
	res.Pairs = inst.NumPairs()
	res.NNZ = inst.NNZ()
	res.GenWall = time.Since(genStart)
	logf("scale: %d links, %d pairs, %d nnz built in %v", res.Links, res.Pairs, res.NNZ, res.GenWall.Round(time.Millisecond))

	pool := engine.NewPool(opt.workers)
	defer pool.Close()
	s.Shard(pool)

	// Route through the controller's deadline policy: same cost model,
	// same decision a live deployment would make for this instance.
	policy := control.ApproxPolicy{Enabled: true}
	res.Approximated = policy.Overruns(res.NNZ, opt.interval)

	// Warm the solver so the timed run measures steady state (the
	// daemon's regime: one solve per interval on a long-lived solver).
	var sol core.Solution
	if res.Approximated {
		err = s.SolveApproxInto(&sol, core.ApproxOptions{MaxIter: 2})
	} else {
		err = s.SolveInto(&sol, core.Options{MaxIter: 2})
	}
	if err != nil {
		return res, err
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if res.Approximated {
		err = s.SolveApproxInto(&sol, core.ApproxOptions{})
	} else {
		err = s.SolveInto(&sol, core.Options{})
	}
	res.SolveWall = time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return res, err
	}
	res.Allocs = after.Mallocs - before.Mallocs
	res.Iterations = sol.Stats.Iterations
	res.GapBound = sol.GapBound
	res.PeakRSS = peakRSSBytes()
	mode := "exact"
	if res.Approximated {
		mode = fmt.Sprintf("approx (gap %.4g)", res.GapBound)
	}
	within := "inside"
	if res.SolveWall > opt.interval {
		within = "OVER"
	}
	logf("scale: %d links solved %s in %v (%d iters, %d allocs) — %s the %v interval",
		res.Links, mode, res.SolveWall.Round(time.Millisecond), res.Iterations, res.Allocs, within, opt.interval)

	res.ShardIdentical, err = scaleShardIdentity(cp, opt)
	if err != nil {
		return res, err
	}
	logf("scale: %d links shard bit-identity across workers %v: %v", res.Links, opt.checkWorkers, res.ShardIdentical)
	return res, nil
}

// scaleShardIdentity re-solves a truncated prefix of the iteration path
// per worker count and compares against the single-worker sharded
// solve bitwise. Bit-identity is a path property, so a truncated prefix
// proves as much as a full solve at a fraction of the cost.
func scaleShardIdentity(cp *core.Problem, opt scaleOptions) (bool, error) {
	solveAt := func(workers int) (*core.Solution, error) {
		s, err := core.NewSolver(cp)
		if err != nil {
			return nil, err
		}
		pool := engine.NewPool(workers)
		defer pool.Close()
		s.Shard(pool)
		return s.Solve(core.Options{MaxIter: opt.checkIters})
	}
	base, err := solveAt(1)
	if err != nil {
		return false, err
	}
	for _, w := range opt.checkWorkers {
		sol, err := solveAt(w)
		if err != nil {
			return false, err
		}
		//netsamp:floateq-ok bit-identity is the property under test, not a tolerance check
		if sol.Objective != base.Objective {
			return false, nil
		}
		for i := range sol.Rates {
			//netsamp:floateq-ok bit-identity is the property under test, not a tolerance check
			if sol.Rates[i] != base.Rates[i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// peakRSSBytes reads the process high-water RSS from /proc (0 where
// unavailable — the metric is informative, not load-bearing).
func peakRSSBytes() uint64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// parseLinksList parses a comma-separated -links value.
func parseLinksList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("scale: bad links value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scale: empty links list")
	}
	return out, nil
}

// cmdScale is the runbook entry point: solve one generated instance per
// requested size under the deadline policy and report how it went.
func cmdScale(args []string) error {
	fs := flag.NewFlagSet("scale", flag.ExitOnError)
	opt := defaultScaleOptions()
	seed := fs.Uint64("seed", opt.seed, "generator seed (instances are pure functions of it)")
	linksList := fs.String("links", "1000,5000,10000", "comma-separated instance sizes (total directed links)")
	pairsPerLink := fs.Int("pairs-per-link", 0, "OD pairs per link (0 = generator default, 100·links capped by the edge set)")
	budgetFrac := fs.Float64("budget-frac", opt.budgetFrac, "θ as a fraction of the instance's maximum sampled rate")
	interval := fs.Duration("interval", opt.interval, "measurement interval the deadline policy defends")
	workers := workersFlag(fs)
	fs.Parse(args)
	if err := checkWorkers(fs, *workers); err != nil {
		return err
	}
	links, err := parseLinksList(*linksList)
	if err != nil {
		return err
	}
	opt.seed = *seed
	opt.links = links
	opt.pairsPerLink = *pairsPerLink
	opt.budgetFrac = *budgetFrac
	opt.interval = *interval
	opt.workers = *workers

	results, err := runScaleSuite(opt, logfStderr)
	if err != nil {
		return err
	}
	return reportScale(os.Stdout, results)
}

// reportScale prints the suite's table and fails if any size broke the
// sharded kernels' bit-identity: that is the property the suite guards,
// so a DRIFT row must not exit 0.
func reportScale(w io.Writer, results []scaleResult) error {
	fmt.Fprintf(w, "%8s %10s %10s %12s %7s %9s %12s %6s %10s\n",
		"links", "pairs", "nnz", "solve", "iters", "mode", "gap", "shard", "peak-rss")
	var drift []string
	for _, r := range results {
		mode := "exact"
		if r.Approximated {
			mode = "approx"
		}
		shard := "ok"
		if !r.ShardIdentical {
			shard = "DRIFT"
			drift = append(drift, strconv.Itoa(r.Links))
		}
		fmt.Fprintf(w, "%8d %10d %10d %12v %7d %9s %12.4g %6s %9.1fM\n",
			r.Links, r.Pairs, r.NNZ, r.SolveWall.Round(time.Millisecond), r.Iterations,
			mode, r.GapBound, shard, float64(r.PeakRSS)/(1<<20))
	}
	if len(drift) > 0 {
		return fmt.Errorf("sharded solve not bit-identical across worker counts at %s links", strings.Join(drift, ", "))
	}
	return nil
}

func logfStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
