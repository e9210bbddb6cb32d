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
	"encoding/json"
	"errors"
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

// command is one thing netsamp can do.
type command struct {
	name, help string
	run        func([]string) error
}

// commands is the one list of what netsamp can do: run dispatches on it
// and usage prints it. The studies come from the eval registry.
var commands = append(studyCommands(), []command{
	{"serve", "supervised control-loop daemon with crash-safe checkpointing", cmdServe},
	{"optimize", "solve a user-provided scenario file (-f network.netsamp)", cmdOptimize},
	{"report", "run every experiment and emit a markdown report", cmdReport},
	{"export-spec", "dump a built-in scenario as an editable .netsamp file", cmdExportSpec},
	{"scale", "solve generated ISP-scale instances under the deadline policy", cmdScale},
	{"topo", "emit the synthetic GEANT topology in DOT format", cmdTopo},
}...)

// studyCommands makes one command of each registered study.
func studyCommands() []command {
	var cs []command
	for _, st := range eval.Studies {
		cs = append(cs, command{st.Name, st.Help, func(args []string) error { return runStudy(st, args) }})
	}
	return cs
}

// runStudy parses a study's flags and runs it to stdout; a parameter out
// of range prints the study's usage before the error.
func runStudy(st eval.Study, args []string) error {
	fs := flag.NewFlagSet(st.Name, flag.ExitOnError)
	run := st.Bind(fs)
	fs.Parse(args)
	err := run(os.Stdout)
	var perr *eval.ParamError
	if errors.As(err, &perr) {
		fs.Usage()
	}
	return err
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

// scenarioFlags registers -seed for export-spec and topo.
func scenarioFlags(fs *flag.FlagSet) *uint64 {
	return fs.Uint64("seed", 1, "scenario seed (background traffic jitter)")
}

// workersFlag registers -workers for serve and scale (the studies
// declare theirs in eval). Results are identical for every worker
// count; the flag only trades wall-clock time for CPU.
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
		prob, err := plan.Build(plan.Input{
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
	cfg := eval.DefaultReportConfig()
	fs.Float64Var(&cfg.Theta, "theta", cfg.Theta, "budget in packets per interval")
	fs.IntVar(&cfg.Trials, "trials", cfg.Trials, "sampling experiments per OD pair")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "scenario seed (background traffic jitter)")
	fs.Parse(args)
	return eval.WriteReport(os.Stdout, cfg)
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
