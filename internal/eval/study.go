package eval

import (
	"context"
	"flag"
	"fmt"
	"io"

	"netsamp/internal/core"
	"netsamp/internal/geant"
)

// The defaults every study shares: the paper's budget θ of 100,000
// sampled packets per interval, its 20 sampling experiments per OD pair,
// and scenario seed 1.
const (
	defaultTheta  = 100000
	defaultTrials = 20
	defaultSeed   = 1
)

// A Study is one experiment of the evaluation as `netsamp <study>` and
// `netsamp report` run it: a name, a help line, and flags bound straight
// into the experiment's parameters, so each default is written once.
type Study struct {
	Name, Help string
	bind       func(p *params) func(w io.Writer) error
}

// Bind declares the study's flags on fs and returns the run that, once
// fs has parsed the command line, executes the study and writes its
// table — or, under -csv, its CSV form — to w. A parameter out of range
// is a *ParamError.
func (st Study) Bind(fs *flag.FlagSet) func(w io.Writer) error {
	return st.bind(&params{FlagSet: fs})
}

// ParamError reports a study parameter outside its range, named by the
// study's flag for it.
type ParamError struct {
	Flag  string
	Value float64
	Want  string
}

func (e *ParamError) Error() string {
	return fmt.Sprintf("invalid -%s %v: %s", e.Flag, e.Value, e.Want)
}

// params is the flag set a study declares its parameters on, plus the
// parameters several studies share.
type params struct {
	*flag.FlagSet
	seed        uint64
	workers     int
	abilene     bool
	hasScenario bool
	// built, when set, is the GEANT scenario of seed builtSeed, built
	// once by the report for every study that runs on it: the studies
	// only read it (DynamicStudy restores the circuit it fails).
	built     *geant.Scenario
	builtSeed uint64
}

// seedFlag declares -seed.
func (p *params) seedFlag() {
	p.Uint64Var(&p.seed, "seed", defaultSeed, "scenario seed (background traffic jitter)")
}

// scenarioFlags declares -seed and has the study run on the scenario it
// selects.
func (p *params) scenarioFlags() {
	p.seedFlag()
	p.hasScenario = true
}

// abileneFlag declares -abilene, which swaps the GEANT scenario for the
// Abilene backbone.
func (p *params) abileneFlag() {
	p.BoolVar(&p.abilene, "abilene", false, "use the Abilene backbone instead of GEANT")
}

// workersFlag declares -workers for the studies that run on the
// engine's worker pool. Results are identical for every worker count;
// the flag only trades wall-clock time for CPU.
func (p *params) workersFlag() {
	p.IntVar(&p.workers, "workers", 0, "parallel solver workers, must be >= 0 (0 = GOMAXPROCS); results are worker-count independent")
}

// scenario checks the shared parameters and builds the study's scenario
// (nil for the studies that run on none).
func (p *params) scenario() (*geant.Scenario, error) {
	if p.workers < 0 {
		return nil, &ParamError{Flag: "workers", Value: float64(p.workers), Want: "must be >= 0 (0 = GOMAXPROCS)"}
	}
	switch {
	case !p.hasScenario:
		return nil, nil
	case p.built != nil && !p.abilene && p.seed == p.builtSeed:
		return p.built, nil
	case p.abilene:
		return geant.BuildAbilene(p.seed)
	default:
		return geant.Build(p.seed)
	}
}

// newStudy assembles a Study from its flag declarations, which return
// the experiment's run, and its renderers. csv is nil for the studies
// without a CSV form; it returns a nil header for a result that has
// none, which then renders as text.
func newStudy[R any](name, help string, flags func(p *params) func(s *geant.Scenario) (R, error),
	render func(io.Writer, R) error, csv func(R) (header []string, rows [][]string)) Study {
	return Study{Name: name, Help: help, bind: func(p *params) func(io.Writer) error {
		run := flags(p)
		asCSV := new(bool)
		if csv != nil {
			p.BoolVar(asCSV, "csv", false, "emit CSV instead of a text table")
		}
		return func(w io.Writer) error {
			s, err := p.scenario()
			if err != nil {
				return err
			}
			res, err := run(s)
			if err != nil {
				return err
			}
			if *asCSV {
				if header, rows := csv(res); header != nil {
					return WriteCSV(w, header, rows)
				}
			}
			return render(w, res)
		}
	}}
}

// figure2Result is either the Figure 2 sweep or, under -ext, its
// extended form, which has no CSV form.
type figure2Result struct {
	points []Figure2Point
	ext    []Figure2ExtPoint
}

// Studies is the registry: `netsamp help` lists it in this order, and
// `netsamp report` runs the studies its plan names.
var Studies = []Study{
	newStudy("figure1", "utility function M(ρ) for two mean OD sizes (paper Fig. 1)",
		func(p *params) func(*geant.Scenario) (Figure1Result, error) {
			points := p.Int("points", 41, "number of abscissa points")
			return func(*geant.Scenario) (Figure1Result, error) { return Figure1(*points), nil }
		}, RenderFigure1, nil),

	newStudy("table1", "optimal sampling plan for the JANET task (paper Table I)",
		func(p *params) func(*geant.Scenario) (*Table1Result, error) {
			theta := p.Float64("theta", defaultTheta, "budget θ in packets per 5-minute interval")
			trials := p.Int("trials", defaultTrials, "sampling experiments per OD pair")
			p.abileneFlag()
			p.scenarioFlags()
			return func(s *geant.Scenario) (*Table1Result, error) {
				return Table1(s, *theta, *trials, p.seed+1000)
			}
		}, RenderTable1, Table1CSV),

	newStudy("figure2", "accuracy vs capacity θ, optimal vs UK-links-only (paper Fig. 2)",
		func(p *params) func(*geant.Scenario) (figure2Result, error) {
			trials := p.Int("trials", defaultTrials, "sampling experiments per OD pair per θ")
			ext := p.Bool("ext", false, "add uniform and two-phase-greedy baseline series")
			p.scenarioFlags()
			p.workersFlag()
			return func(s *geant.Scenario) (r figure2Result, err error) {
				if *ext {
					r.ext, err = Figure2Extended(context.Background(), s, DefaultThetas(), *trials, p.seed+2000, p.workers)
				} else {
					r.points, err = Figure2(context.Background(), s, DefaultThetas(), *trials, p.seed+2000, p.workers)
				}
				return r, err
			}
		},
		func(w io.Writer, r figure2Result) error {
			if r.ext != nil {
				return RenderFigure2Extended(w, r.ext)
			}
			return RenderFigure2(w, r.points)
		},
		func(r figure2Result) ([]string, [][]string) {
			if r.ext != nil {
				return nil, nil
			}
			return Figure2CSV(r.points)
		}),

	newStudy("convergence", "solver statistics over randomized instances (paper §IV-D)",
		func(p *params) func(*geant.Scenario) (*ConvergenceResult, error) {
			runs := p.Int("runs", 200, "number of randomized solver runs (paper: 200)")
			p.scenarioFlags()
			p.workersFlag()
			return func(s *geant.Scenario) (*ConvergenceResult, error) {
				return ConvergenceStudy(context.Background(), s, *runs, p.seed+3000, core.Options{}, p.workers)
			}
		}, RenderConvergence, nil),

	newStudy("accesslink", "capacity cost of access-link-only monitoring (paper §V-C)",
		func(p *params) func(*geant.Scenario) (*AccessComparison, error) {
			theta := p.Float64("theta", defaultTheta, "budget θ in packets per interval")
			p.scenarioFlags()
			return func(s *geant.Scenario) (*AccessComparison, error) { return AccessLinkComparison(s, *theta) }
		}, RenderAccessComparison, nil),

	newStudy("maxmin", "max-min variant of the JANET task (paper's future work)",
		func(p *params) func(*geant.Scenario) (*MaxMinComparison, error) {
			theta := p.Float64("theta", defaultTheta, "budget θ in packets per interval")
			p.scenarioFlags()
			return func(s *geant.Scenario) (*MaxMinComparison, error) { return MaxMinStudy(s, *theta) }
		}, RenderMaxMin, nil),

	newStudy("detect", "anomaly-detection placement (detection-probability utility)",
		func(p *params) func(*geant.Scenario) (*DetectionResult, error) {
			theta := p.Float64("theta", defaultTheta, "budget in packets per interval")
			size := p.Int("size", 500, "anomalous event footprint in packets per interval")
			p.scenarioFlags()
			p.workersFlag()
			return func(s *geant.Scenario) (*DetectionResult, error) {
				return DetectionStudy(context.Background(), s, *theta, *size, p.workers)
			}
		}, RenderDetection, nil),

	newStudy("tm", "traffic-matrix estimation: SNMP counters vs optimized sampling",
		func(p *params) func(*geant.Scenario) (*TMResult, error) {
			theta := p.Float64("theta", defaultTheta, "budget in packets per interval")
			trials := p.Int("trials", defaultTrials, "sampling experiments per OD pair")
			p.scenarioFlags()
			p.workersFlag()
			return func(s *geant.Scenario) (*TMResult, error) {
				return TMStudy(context.Background(), s, *theta, *trials, p.seed+5000, p.workers)
			}
		}, RenderTM, nil),

	newStudy("dynamic", "static vs re-optimized plans under traffic/routing dynamics",
		func(p *params) func(*geant.Scenario) (*DynamicResult, error) {
			intervals := p.Int("intervals", 24, "number of 5-minute intervals to simulate")
			theta := p.Float64("theta", defaultTheta, "budget θ in packets per interval")
			p.scenarioFlags()
			p.workersFlag()
			return func(s *geant.Scenario) (*DynamicResult, error) {
				return DynamicStudy(context.Background(), s, *intervals, *theta, p.seed+4000, p.workers)
			}
		}, RenderDynamic, nil),

	newStudy("degrade", "accuracy under monitor crashes and export loss, naive vs graceful",
		func(p *params) func(*geant.Scenario) (*DegradeResult, error) {
			cfg := DefaultDegradeConfig()
			p.IntVar(&cfg.Intervals, "intervals", cfg.Intervals, "simulated 5-minute intervals per grid point")
			p.Float64Var(&cfg.Theta, "theta", cfg.Theta, "budget θ in packets per interval")
			p.Float64Var(&cfg.OverrunRate, "overrun", cfg.OverrunRate, "per-interval solver overrun probability (0 disables)")
			p.scenarioFlags()
			p.workersFlag()
			return func(s *geant.Scenario) (*DegradeResult, error) {
				cfg.Seed, cfg.Workers = p.seed+6000, p.workers
				return DegradationStudy(context.Background(), s, cfg)
			}
		}, RenderDegrade, DegradeCSV),

	newStudy("regret", "utility regret under load drift: plug-in vs uncertainty-aware control",
		func(p *params) func(*geant.Scenario) (*RegretResult, error) {
			cfg := DefaultRegretConfig()
			p.IntVar(&cfg.Intervals, "intervals", cfg.Intervals, "simulated 5-minute intervals per grid point")
			p.Float64Var(&cfg.Theta, "theta", cfg.Theta, "budget θ in packets per interval")
			p.Float64Var(&cfg.DriftVol, "drift", cfg.DriftVol, "true-load random-walk volatility per interval (0 disables)")
			p.Float64Var(&cfg.DriftStep, "step", cfg.DriftStep, "per-interval probability of a step change in a link's true load (0 disables)")
			p.Float64Var(&cfg.ExplorationFrac, "explore", cfg.ExplorationFrac, "exploration reserve as a fraction of θ in [0, 0.5] (0 disables)")
			p.Float64Var(&cfg.WidenFactor, "widen", cfg.WidenFactor, "tracker confidence widening per unobserved interval (>= 1)")
			p.IntVar(&cfg.KillAt, "killat", cfg.KillAt, "kill and restore the robust controller before this interval (0 disables; output must not change)")
			p.scenarioFlags()
			p.workersFlag()
			return func(s *geant.Scenario) (*RegretResult, error) {
				cfg.Seed, cfg.Workers = p.seed+7000, p.workers
				return RegretStudy(context.Background(), s, cfg)
			}
		}, RenderRegret, RegretCSV),

	newStudy("coordinate", "coordinated (cSamp-style) vs independent sampling across θ",
		func(p *params) func(*geant.Scenario) ([]CoordinationPoint, error) {
			trials := p.Int("trials", defaultTrials, "sampling experiments per OD pair and θ")
			expSeed := p.Uint64("expseed", 42, "seed of the sampling experiments")
			p.scenarioFlags()
			p.workersFlag()
			return func(s *geant.Scenario) ([]CoordinationPoint, error) {
				return CoordinationStudy(context.Background(), s, DefaultThetas(), *trials, *expSeed, p.workers)
			}
		}, RenderCoordination, CoordinationCSV),

	newStudy("saturation", "ingest-tier graceful degradation at 1x/2x/4x offered load (deterministic)",
		func(p *params) func(*geant.Scenario) (*SaturationResult, error) {
			cfg := DefaultSaturationConfig()
			p.IntVar(&cfg.Shards, "shards", cfg.Shards, "collector shards")
			p.IntVar(&cfg.RingSize, "ring", cfg.RingSize, "datagram ring capacity per shard")
			p.IntVar(&cfg.CapacityPerTick, "capacity", cfg.CapacityPerTick, "record budget per shard per tick")
			p.IntVar(&cfg.Ticks, "ticks", cfg.Ticks, "injection ticks per grid point")
			p.IntVar(&cfg.Exporters, "exporters", cfg.Exporters, "synthetic exporters")
			p.Float64Var(&cfg.LossP, "loss", cfg.LossP, "per-datagram wire-loss probability (0 disables)")
			p.Float64Var(&cfg.DupP, "dup", cfg.DupP, "per-datagram duplicate probability (0 disables)")
			p.seedFlag()
			return func(*geant.Scenario) (*SaturationResult, error) {
				cfg.Seed = p.seed + 8000
				return SaturationStudy(cfg)
			}
		}, RenderSaturation, SaturationCSV),
}
