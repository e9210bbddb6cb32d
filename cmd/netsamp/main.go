// Command netsamp regenerates the paper's evaluation on the synthetic
// GEANT scenario.
//
// `netsamp help` lists the commands and `netsamp <command> -h` a
// command's flags; flags go after the command. Global flags, given
// before the command, profile whatever the command runs:
//
//	netsamp -cpuprofile cpu.out -memprofile mem.out figure2 -workers 8
//
// Every experiment is deterministic for a given seed, and the studies
// that accept -workers produce bit-identical output for every worker
// count (per-job RNG streams are split-seeded by job index). -workers
// must be >= 0; 0 means GOMAXPROCS.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"netsamp/internal/core"
	"netsamp/internal/eval"
	"netsamp/internal/geant"
	"netsamp/internal/plan"
	"netsamp/internal/spec"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// commands is the one list of what netsamp can do: run dispatches on it
// and usage prints it.
var commands = []struct {
	name, help string
	run        func([]string) error
}{
	{"figure1", "utility function M(ρ) for two mean OD sizes (paper Fig. 1)", cmdFigure1},
	{"table1", "optimal sampling plan for the JANET task (paper Table I)", cmdTable1},
	{"figure2", "accuracy vs capacity θ, optimal vs UK-links-only (paper Fig. 2)", cmdFigure2},
	{"convergence", "solver statistics over randomized instances (paper §IV-D)", cmdConvergence},
	{"accesslink", "capacity cost of access-link-only monitoring (paper §V-C)", cmdAccessLink},
	{"maxmin", "max-min variant of the JANET task (paper's future work)", cmdMaxMin},
	{"detect", "anomaly-detection placement (detection-probability utility)", cmdDetect},
	{"tm", "traffic-matrix estimation: SNMP counters vs optimized sampling", cmdTM},
	{"dynamic", "static vs re-optimized plans under traffic/routing dynamics", cmdDynamic},
	{"degrade", "accuracy under monitor crashes and export loss, naive vs graceful", cmdDegrade},
	{"regret", "utility regret under load drift: plug-in vs uncertainty-aware control", cmdRegret},
	{"coordinate", "coordinated (cSamp-style) vs independent sampling across θ", cmdCoordinate},
	{"saturation", "ingest-tier graceful degradation at 1x/2x/4x offered load (deterministic)", cmdSaturation},
	{"serve", "supervised control-loop daemon with crash-safe checkpointing", cmdServe},
	{"optimize", "solve a user-provided scenario file (-f network.netsamp)", cmdOptimize},
	{"report", "run every experiment and emit a markdown report", cmdReport},
	{"export-spec", "dump a built-in scenario as an editable .netsamp file", cmdExportSpec},
	{"scale", "solve generated ISP-scale instances under the deadline policy", cmdScale},
	{"topo", "emit the synthetic GEANT topology in DOT format", cmdTopo},
	{"all", "run every experiment in sequence", cmdAll},
}

// run is main with an exit code, so the profile-writing defers execute
// before the process exits — on every path, including a usage error.
func run(argv []string) int {
	global := flag.NewFlagSet("netsamp", flag.ContinueOnError)
	global.SetOutput(os.Stderr)
	global.Usage = func() { usage(os.Stderr) }
	cpuprofile := global.String("cpuprofile", "", "write a CPU profile of the command to `file`")
	memprofile := global.String("memprofile", "", "write a heap profile taken after the command to `file`")
	// Parse stops at the first non-flag argument, so global flags come
	// before the command and per-command flags after it.
	if err := global.Parse(argv); err != nil {
		return 2
	}
	if global.NArg() < 1 {
		usage(os.Stderr)
		return 2
	}
	name, args := global.Arg(0), global.Args()[1:]
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsamp: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "netsamp: -cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "netsamp: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "netsamp: -memprofile: %v\n", err)
			}
		}()
	}
	if name == "help" {
		usage(os.Stderr)
		return 0
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		if err := c.run(args); err != nil {
			fmt.Fprintf(os.Stderr, "netsamp %s: %v\n", name, err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "netsamp: unknown command %q\n", name)
	usage(os.Stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, "netsamp — optimal network-wide sampling (CoNEXT 2006 reproduction)\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-12s %s\n", c.name, c.help)
	}
	fmt.Fprint(w, "\nglobal flags (before the command): -cpuprofile FILE, -memprofile FILE\n")
}

func scenarioFlags(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 1, "scenario seed (background traffic jitter)")
}

// workersFlag registers -workers for the experiments that run on the
// engine's worker pool. Results are identical for every worker count;
// the flag only trades wall-clock time for CPU.
func workersFlag(fs *flag.FlagSet) *int {
	return fs.Int("workers", 0, "parallel solver workers, must be >= 0 (0 = GOMAXPROCS); results are worker-count independent")
}

// checkWorkers rejects negative -workers values with a usage error
// before any work starts.
func checkWorkers(fs *flag.FlagSet, workers int) error {
	if workers < 0 {
		fs.Usage()
		return fmt.Errorf("invalid -workers %d: must be >= 0 (0 = GOMAXPROCS)", workers)
	}
	return nil
}

func cmdFigure1(args []string) error {
	fs := flag.NewFlagSet("figure1", flag.ExitOnError)
	points := fs.Int("points", 41, "number of abscissa points")
	fs.Parse(args)
	return eval.RenderFigure1(os.Stdout, eval.Figure1(*points))
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	theta := fs.Float64("theta", 100000, "budget θ in packets per 5-minute interval")
	trials := fs.Int("trials", 20, "sampling experiments per OD pair")
	csv := fs.Bool("csv", false, "emit CSV instead of a text table")
	abilene := fs.Bool("abilene", false, "use the Abilene backbone instead of GEANT")
	seed := scenarioFlags(fs)
	fs.Parse(args)
	build := geant.Build
	if *abilene {
		build = geant.BuildAbilene
	}
	s, err := build(*seed)
	if err != nil {
		return err
	}
	res, err := eval.Table1(s, *theta, *trials, *seed+1000)
	if err != nil {
		return err
	}
	if *csv {
		header, rows := eval.Table1CSV(res)
		return eval.WriteCSV(os.Stdout, header, rows)
	}
	return eval.RenderTable1(os.Stdout, res)
}

func cmdFigure2(args []string) error {
	fs := flag.NewFlagSet("figure2", flag.ExitOnError)
	trials := fs.Int("trials", 20, "sampling experiments per OD pair per θ")
	csv := fs.Bool("csv", false, "emit CSV instead of a text table")
	ext := fs.Bool("ext", false, "add uniform and two-phase-greedy baseline series")
	seed := scenarioFlags(fs)
	workers := workersFlag(fs)
	fs.Parse(args)
	if err := checkWorkers(fs, *workers); err != nil {
		return err
	}
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	if *ext {
		pts, err := eval.Figure2Extended(context.Background(), s, eval.DefaultThetas(), *trials, *seed+2000, *workers)
		if err != nil {
			return err
		}
		return eval.RenderFigure2Extended(os.Stdout, pts)
	}
	points, err := eval.Figure2(context.Background(), s, eval.DefaultThetas(), *trials, *seed+2000, *workers)
	if err != nil {
		return err
	}
	if *csv {
		header, rows := eval.Figure2CSV(points)
		return eval.WriteCSV(os.Stdout, header, rows)
	}
	return eval.RenderFigure2(os.Stdout, points)
}

func cmdConvergence(args []string) error {
	fs := flag.NewFlagSet("convergence", flag.ExitOnError)
	runs := fs.Int("runs", 200, "number of randomized solver runs (paper: 200)")
	nopre := fs.Bool("nopre", false, "disable the preconditioner (the paper's plain method)")
	seed := scenarioFlags(fs)
	workers := workersFlag(fs)
	fs.Parse(args)
	if err := checkWorkers(fs, *workers); err != nil {
		return err
	}
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	res, err := eval.ConvergenceStudy(context.Background(), s, *runs, *seed+3000,
		core.Options{DisablePreconditioner: *nopre}, *workers)
	if err != nil {
		return err
	}
	return eval.RenderConvergence(os.Stdout, res)
}

func cmdAccessLink(args []string) error {
	fs := flag.NewFlagSet("accesslink", flag.ExitOnError)
	theta := fs.Float64("theta", 100000, "budget θ in packets per interval")
	seed := scenarioFlags(fs)
	fs.Parse(args)
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	res, err := eval.AccessLinkComparison(s, *theta)
	if err != nil {
		return err
	}
	return eval.RenderAccessComparison(os.Stdout, res)
}

func cmdMaxMin(args []string) error {
	fs := flag.NewFlagSet("maxmin", flag.ExitOnError)
	theta := fs.Float64("theta", 100000, "budget θ in packets per interval")
	seed := scenarioFlags(fs)
	fs.Parse(args)
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	prob, _, err := plan.Build(plan.Input{
		Matrix:       s.Matrix,
		Loads:        s.Loads,
		Candidates:   s.MonitorLinks,
		InvMeanSizes: s.UtilityParams(eval.Interval),
		Budget:       core.BudgetPerInterval(*theta, eval.Interval),
	})
	if err != nil {
		return err
	}
	sum, err := core.Solve(prob, core.Options{})
	if err != nil {
		return err
	}
	mm, err := core.SolveMaxMin(prob, core.MaxMinOptions{})
	if err != nil {
		return err
	}
	exact, err := core.SolveMaxMinExact(prob, 0)
	if err != nil {
		return err
	}
	minOf := func(u []float64) float64 {
		m := u[0]
		for _, v := range u {
			if v < m {
				m = v
			}
		}
		return m
	}
	fmt.Printf("Max-min variant (paper's future-work objective) at θ = %.0f\n\n", *theta)
	fmt.Printf("%-28s %14s %14s %14s\n", "", "sum objective", "maxmin heur", "maxmin exact")
	fmt.Printf("%-28s %14.4f %14.4f %14.4f\n", "worst OD-pair utility",
		minOf(sum.Utilities), minOf(mm.Utilities), minOf(exact.Utilities))
	fmt.Printf("%-28s %14d %14d %14d\n", "active monitors",
		len(sum.ActiveMonitors()), len(mm.ActiveMonitors()), len(exact.ActiveMonitors()))
	fmt.Printf("\nper-pair utilities:\n")
	for k := range s.Pairs {
		fmt.Printf("  %-12s %8.4f %8.4f %8.4f\n", s.Pairs[k].Name,
			sum.Utilities[k], mm.Utilities[k], exact.Utilities[k])
	}
	return nil
}

func cmdTM(args []string) error {
	fs := flag.NewFlagSet("tm", flag.ExitOnError)
	theta := fs.Float64("theta", 100000, "budget in packets per interval")
	trials := fs.Int("trials", 20, "sampling experiments per OD pair")
	seed := scenarioFlags(fs)
	workers := workersFlag(fs)
	fs.Parse(args)
	if err := checkWorkers(fs, *workers); err != nil {
		return err
	}
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	res, err := eval.TMStudy(context.Background(), s, *theta, *trials, *seed+5000, *workers)
	if err != nil {
		return err
	}
	return eval.RenderTM(os.Stdout, res)
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	theta := fs.Float64("theta", 100000, "budget in packets per interval")
	size := fs.Int("size", 500, "anomalous event footprint in packets per interval")
	seed := scenarioFlags(fs)
	workers := workersFlag(fs)
	fs.Parse(args)
	if err := checkWorkers(fs, *workers); err != nil {
		return err
	}
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	res, err := eval.DetectionStudy(context.Background(), s, *theta, *size, *workers)
	if err != nil {
		return err
	}
	return eval.RenderDetection(os.Stdout, res)
}

func cmdDynamic(args []string) error {
	fs := flag.NewFlagSet("dynamic", flag.ExitOnError)
	intervals := fs.Int("intervals", 24, "number of 5-minute intervals to simulate")
	theta := fs.Float64("theta", 100000, "budget \u03b8 in packets per interval")
	seed := scenarioFlags(fs)
	workers := workersFlag(fs)
	fs.Parse(args)
	if err := checkWorkers(fs, *workers); err != nil {
		return err
	}
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	res, err := eval.DynamicStudy(context.Background(), s, *intervals, *theta, *seed+4000, *workers)
	if err != nil {
		return err
	}
	return eval.RenderDynamic(os.Stdout, res)
}

func cmdDegrade(args []string) error {
	fs := flag.NewFlagSet("degrade", flag.ExitOnError)
	intervals := fs.Int("intervals", 8, "simulated 5-minute intervals per grid point")
	theta := fs.Float64("theta", 100000, "budget θ in packets per interval")
	overrun := fs.Float64("overrun", 0.2, "per-interval solver overrun probability (0 disables)")
	csv := fs.Bool("csv", false, "emit CSV instead of a text table")
	seed := scenarioFlags(fs)
	workers := workersFlag(fs)
	fs.Parse(args)
	if err := checkWorkers(fs, *workers); err != nil {
		return err
	}
	if *overrun < 0 || *overrun > 1 {
		fs.Usage()
		return fmt.Errorf("invalid -overrun %v: must be in [0, 1]", *overrun)
	}
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	cfg := eval.DegradeConfig{
		Intervals: *intervals, Theta: *theta, OverrunRate: *overrun,
		Seed: *seed + 6000, Workers: *workers,
	}
	if *overrun == 0 {
		cfg.OverrunRate = -1 // explicit zero, not "use the default"
	}
	res, err := eval.DegradationStudy(context.Background(), s, cfg)
	if err != nil {
		return err
	}
	if *csv {
		header, rows := eval.DegradeCSV(res)
		return eval.WriteCSV(os.Stdout, header, rows)
	}
	return eval.RenderDegrade(os.Stdout, res)
}

func cmdRegret(args []string) error {
	fs := flag.NewFlagSet("regret", flag.ExitOnError)
	intervals := fs.Int("intervals", 24, "simulated 5-minute intervals per grid point")
	theta := fs.Float64("theta", 100000, "budget θ in packets per interval")
	drift := fs.Float64("drift", 0.3, "true-load random-walk volatility per interval (0 disables)")
	step := fs.Float64("step", 0.1, "per-interval probability of a step change in a link's true load (0 disables)")
	explore := fs.Float64("explore", 0.1, "exploration reserve as a fraction of θ in [0, 0.5] (0 disables)")
	widen := fs.Float64("widen", 1.3, "tracker confidence widening per unobserved interval (>= 1)")
	killat := fs.Int("killat", 0, "kill and restore the robust controller before this interval (0 disables; output must not change)")
	csv := fs.Bool("csv", false, "emit CSV instead of a text table")
	seed := scenarioFlags(fs)
	workers := workersFlag(fs)
	fs.Parse(args)
	if err := checkWorkers(fs, *workers); err != nil {
		return err
	}
	if *drift < 0 || *step < 0 || *step > 1 {
		fs.Usage()
		return fmt.Errorf("invalid -drift %v / -step %v: want drift >= 0 and step in [0, 1]", *drift, *step)
	}
	if *explore < 0 || *explore > 0.5 {
		fs.Usage()
		return fmt.Errorf("invalid -explore %v: must be in [0, 0.5]", *explore)
	}
	if *widen < 1 {
		fs.Usage()
		return fmt.Errorf("invalid -widen %v: must be >= 1", *widen)
	}
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	cfg := eval.RegretConfig{
		Intervals: *intervals, Theta: *theta,
		DriftVol: *drift, DriftStep: *step,
		ExplorationFrac: *explore, WidenFactor: *widen,
		KillAt: *killat, Seed: *seed + 7000, Workers: *workers,
	}
	// The flag defaults mirror the study defaults, but an explicit zero
	// means "disable", not "use the default".
	if *drift == 0 {
		cfg.DriftVol = -1
	}
	if *step == 0 {
		cfg.DriftStep = -1
	}
	if *explore == 0 {
		cfg.ExplorationFrac = -1
	}
	res, err := eval.RegretStudy(context.Background(), s, cfg)
	if err != nil {
		return err
	}
	if *csv {
		header, rows := eval.RegretCSV(res)
		return eval.WriteCSV(os.Stdout, header, rows)
	}
	return eval.RenderRegret(os.Stdout, res)
}

func cmdSaturation(args []string) error {
	fs := flag.NewFlagSet("saturation", flag.ExitOnError)
	shards := fs.Int("shards", 4, "collector shards")
	ring := fs.Int("ring", 256, "datagram ring capacity per shard")
	capacity := fs.Int("capacity", 2048, "record budget per shard per tick")
	ticks := fs.Int("ticks", 200, "injection ticks per grid point")
	exporters := fs.Int("exporters", 8, "synthetic exporters")
	loss := fs.Float64("loss", 0.01, "per-datagram wire-loss probability (0 disables)")
	dup := fs.Float64("dup", 0.005, "per-datagram duplicate probability (0 disables)")
	csv := fs.Bool("csv", false, "emit CSV instead of a text table")
	seed := scenarioFlags(fs)
	fs.Parse(args)
	cfg := eval.SaturationConfig{
		Shards: *shards, RingSize: *ring, CapacityPerTick: *capacity,
		Ticks: *ticks, Exporters: *exporters, Seed: *seed + 8000,
		LossP: *loss, DupP: *dup,
	}
	// The flag defaults mirror the study defaults, but an explicit zero
	// means "disable", not "use the default".
	if *loss == 0 {
		cfg.LossP = -1
	}
	if *dup == 0 {
		cfg.DupP = -1
	}
	res, err := eval.SaturationStudy(cfg)
	if err != nil {
		return err
	}
	if *csv {
		header, rows := eval.SaturationCSV(res)
		return eval.WriteCSV(os.Stdout, header, rows)
	}
	return eval.RenderSaturation(os.Stdout, res)
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	file := fs.String("f", "", "scenario file (see internal/spec for the format)")
	modelName := fs.String("model", "linear", "effective-rate model: linear (paper's working model (7)), exact (product model (1)), or coordinated (cSamp-style hash partitioning)")
	maxmin := fs.Bool("maxmin", false, "maximize the worst pair's utility (certified LP bisection) instead of the sum")
	jsonOut := fs.Bool("json", false, "emit the plan as JSON (for automation)")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("optimize needs -f <scenario file>")
	}
	model, err := core.ModelByName(*modelName)
	if err != nil {
		return err
	}
	f, err := os.Open(*file)
	if err != nil {
		return err
	}
	defer f.Close()
	sc, err := spec.Parse(f)
	if err != nil {
		return err
	}
	res, err := sc.Solve(core.Options{}, model)
	if err != nil {
		return err
	}
	sol := res.Solution
	if *maxmin {
		prob, _, err := plan.Build(plan.Input{
			Matrix:       res.Matrix,
			Loads:        res.Loads,
			Candidates:   res.Candidates,
			InvMeanSizes: invSizesOf(sc),
			Budget:       core.BudgetPerInterval(sc.Theta, sc.Interval),
		})
		if err != nil {
			return err
		}
		sol, err = core.SolveMaxMinExact(prob, 0)
		if err != nil {
			return err
		}
		res.Rates = plan.RatesByLink(sol, res.Candidates)
	}
	if *jsonOut {
		type linkJSON struct {
			Link    string  `json:"link"`
			Rate    float64 `json:"rate"`
			Load    float64 `json:"load_pkts_per_sec"`
			Sampled float64 `json:"sampled_pkts_per_sec"`
		}
		type pairJSON struct {
			Pair    string  `json:"pair"`
			Rho     float64 `json:"effective_rate"`
			Utility float64 `json:"utility"`
		}
		out := struct {
			Theta     float64    `json:"theta_pkts_per_interval"`
			Interval  float64    `json:"interval_seconds"`
			Converged bool       `json:"converged"`
			Links     []linkJSON `json:"links"`
			Pairs     []pairJSON `json:"pairs"`
		}{Theta: sc.Theta, Interval: sc.Interval, Converged: sol.Stats.Converged}
		for _, lid := range res.Candidates {
			p := res.Rates[lid]
			out.Links = append(out.Links, linkJSON{
				Link: sc.Graph.LinkName(lid), Rate: p,
				Load: res.Loads[lid], Sampled: p * res.Loads[lid],
			})
		}
		for k := range sc.Pairs {
			out.Pairs = append(out.Pairs, pairJSON{
				Pair: sc.Pairs[k].Name, Rho: sol.Rho[k], Utility: sol.Utilities[k],
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Printf("solved: %d candidate links, \u03b8 = %.0f pkts / %.0fs, converged=%v (%d iterations)\n\n",
		len(res.Candidates), sc.Theta, sc.Interval, sol.Stats.Converged, sol.Stats.Iterations)
	fmt.Printf("%-16s %12s %14s %14s\n", "link", "rate p_i", "load (pkt/s)", "sampled pkt/s")
	for _, lid := range res.Candidates {
		p := res.Rates[lid]
		if p == 0 {
			fmt.Printf("%-16s %12s %14.0f %14s\n", sc.Graph.LinkName(lid), "off", res.Loads[lid], "-")
			continue
		}
		fmt.Printf("%-16s %12.6f %14.0f %14.2f\n", sc.Graph.LinkName(lid), p, res.Loads[lid], p*res.Loads[lid])
	}
	fmt.Printf("\n%-20s %14s %10s\n", "OD pair", "effective rho", "utility")
	for k := range sc.Pairs {
		fmt.Printf("%-20s %14.6f %10.4f\n", sc.Pairs[k].Name, sol.Rho[k], sol.Utilities[k])
	}
	return nil
}

func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	theta := fs.Float64("theta", 100000, "budget in packets per interval")
	trials := fs.Int("trials", 20, "sampling experiments per OD pair")
	seed := scenarioFlags(fs)
	fs.Parse(args)
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	return eval.WriteReport(os.Stdout, s, eval.ReportConfig{
		Theta:  *theta,
		Trials: *trials,
		Seed:   *seed,
	})
}

// invSizesOf recomputes the per-pair utility parameters of a scenario.
func invSizesOf(sc *spec.Scenario) []float64 {
	inv := make([]float64, len(sc.Pairs))
	for k := range sc.Pairs {
		inv[k] = 1 / (sc.Rates[k] * sc.Interval)
	}
	return inv
}

func cmdExportSpec(args []string) error {
	fs := flag.NewFlagSet("export-spec", flag.ExitOnError)
	theta := fs.Float64("theta", 100000, "budget written into the file")
	abilene := fs.Bool("abilene", false, "export the Abilene scenario instead of GEANT")
	seed := scenarioFlags(fs)
	fs.Parse(args)
	build := geant.Build
	if *abilene {
		build = geant.BuildAbilene
	}
	s, err := build(*seed)
	if err != nil {
		return err
	}
	return spec.Export(os.Stdout, s.Graph, s.Demands, s.Pairs, s.Rates, *theta, eval.Interval)
}

func cmdTopo(args []string) error {
	fs := flag.NewFlagSet("topo", flag.ExitOnError)
	seed := scenarioFlags(fs)
	fs.Parse(args)
	s, err := geant.Build(*seed)
	if err != nil {
		return err
	}
	_, err = fmt.Print(s.Graph.DOT())
	return err
}

func cmdAll(args []string) error {
	fmt.Println("=== Figure 1 ===")
	if err := cmdFigure1(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Table I ===")
	if err := cmdTable1(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Figure 2 ===")
	if err := cmdFigure2(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Convergence (§IV-D) ===")
	if err := cmdConvergence(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Access-link comparison (§V-C) ===")
	if err := cmdAccessLink(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Traffic-matrix estimation comparison ===")
	if err := cmdTM(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Anomaly-detection placement ===")
	if err := cmdDetect(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Dynamic re-optimization ===")
	if err := cmdDynamic(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Degradation under faults ===")
	if err := cmdDegrade(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Regret under load drift ===")
	if err := cmdRegret(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Max-min extension ===")
	return cmdMaxMin(nil)
}
