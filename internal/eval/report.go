package eval

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netsamp/internal/geant"
)

// ReportConfig holds the flags of `netsamp report`; each goes to every
// study in the report plan that declares it.
type ReportConfig struct {
	Theta  float64 // -theta: budget in packets per interval
	Trials int     // -trials: sampling experiments per OD pair
	Seed   uint64  // -seed: scenario seed
}

// DefaultReportConfig returns the studies' own defaults.
func DefaultReportConfig() ReportConfig {
	return ReportConfig{Theta: defaultTheta, Trials: defaultTrials, Seed: defaultSeed}
}

// reportPlan is the report: one section per entry, holding the output of
// the study command line.
var reportPlan = []struct{ title, command string }{
	{"Figure 1 — utility function", "figure1 -points 21"},
	{"Table I — optimal sampling plan", "table1"},
	{"Figure 2 — accuracy vs capacity", "figure2"},
	{"Figure 2 (extended) — all baselines, worst-pair accuracy", "figure2 -ext"},
	{"Solver convergence (§IV-D)", "convergence"},
	{"Access-link comparison (§V-C)", "accesslink"},
	{"Traffic-matrix estimation comparison", "tm"},
	{"Anomaly-detection placement", "detect"},
	{"Dynamic re-optimization", "dynamic"},
	{"Degradation under faults", "degrade"},
	{"Regret under load drift", "regret"},
	{"Max-min extension", "maxmin"},
	{"Coordinated vs independent sampling", "coordinate"},
	{"Ingest saturation", "saturation"},
}

// WriteReport runs every study of the report plan and writes one
// self-contained markdown report (the `netsamp report` command).
func WriteReport(w io.Writer, cfg ReportConfig) error {
	s, err := geant.Build(cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# netsamp evaluation report")
	fmt.Fprintf(w, "\nScenario: %d nodes, %d links, %d OD pairs; θ = %.0f packets per %.0f s interval; seed %d.\n",
		s.Graph.NumNodes(), s.Graph.NumLinks(), len(s.Pairs), cfg.Theta, Interval, cfg.Seed)
	shared := []struct{ flag, value string }{
		{"theta", strconv.FormatFloat(cfg.Theta, 'g', -1, 64)},
		{"trials", strconv.Itoa(cfg.Trials)},
		{"seed", strconv.FormatUint(cfg.Seed, 10)},
	}
	for _, sec := range reportPlan {
		args := strings.Fields(sec.command)
		st, err := studyNamed(args[0])
		if err != nil {
			return err
		}
		fs := flag.NewFlagSet(st.Name, flag.ContinueOnError)
		run := st.bind(&params{FlagSet: fs, built: s, builtSeed: cfg.Seed})
		for _, f := range shared {
			if fs.Lookup(f.flag) == nil {
				continue
			}
			if err := fs.Set(f.flag, f.value); err != nil {
				return fmt.Errorf("eval: report: %s -%s: %w", st.Name, f.flag, err)
			}
		}
		if err := fs.Parse(args[1:]); err != nil {
			return fmt.Errorf("eval: report: %q: %w", sec.command, err)
		}
		fmt.Fprintf(w, "\n## %s\n\n```\n", sec.title)
		if err := run(w); err != nil {
			return err
		}
		fmt.Fprint(w, "```\n")
	}
	return nil
}

// studyNamed finds a study in the registry.
func studyNamed(name string) (Study, error) {
	for _, st := range Studies {
		if st.Name == name {
			return st, nil
		}
	}
	return Study{}, fmt.Errorf("eval: no study %q", name)
}
