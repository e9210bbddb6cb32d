// Command bench is the interval-pipeline benchmark: one closed-loop,
// single-goroutine driver that feeds generated sampled-flow datagrams
// through ingest, estimation, the controller and the durable state
// layer, and times the whole path from outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "seed of everything that varies between runs")
		seconds  = flag.Float64("seconds", fullSeconds, "measuring time; scales each workload's interval count")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		out      = flag.String("out", "", "directory for <workload>.json (and .trace.jsonl); empty writes no files")
		compare  = flag.Bool("compare", false, "compare two result directories or files: bench -compare a b")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare <a> <b>")
			os.Exit(2)
		}
		os.Exit(compareCmd(flag.Arg(0), flag.Arg(1)))
	}
	var run []*spec
	if *workload == "all" {
		run = specs()
	} else {
		s, err := specByName(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		run = []*spec{s}
	}
	stateRoot := "out"
	if *out != "" {
		stateRoot = *out
	}
	exit := 0
	for _, s := range run {
		// -workload all is the one command that prints everything: the
		// end-to-end run and then the traced run of every workload.
		passes := []bool{*trace == 1}
		if *workload == "all" {
			passes = []bool{false, true}
		}
		for _, traced := range passes {
			res, err := runWorkload(s, runOptions{seed: *seed, seconds: *seconds, trace: traced, stateRoot: stateRoot})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			res.print()
			if *out != "" {
				if err := writeResult(*out, res); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			if res.Failed > 0 {
				exit = 1
			}
			res.printLastLine()
		}
	}
	// State directories are gone by now; drop their parent too. It stays
	// (and Remove fails, as it should) when results were written into it.
	_ = os.Remove(stateRoot)
	os.Exit(exit)
}

// print lists every metric of the run by name, with unit and sample
// count, then the checks' outcome.
func (res *result) print() {
	kind := "end-to-end"
	if res.Traced {
		kind = "traced"
	}
	fmt.Printf("== %s  seed %d  %s  %d intervals  %.1fs wall\n", res.Workload, res.Seed, kind, res.Intervals, res.WallS)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Printf("  %-32s %16.6g %-6s %s\n", name, m.Value, m.Unit, n)
	}
	if res.Traced {
		layers := make([]string, 0, len(res.LayerShares))
		for l := range res.LayerShares {
			layers = append(layers, l)
		}
		sort.Slice(layers, func(i, j int) bool { return res.LayerShares[layers[i]] > res.LayerShares[layers[j]] })
		var b strings.Builder
		for _, l := range layers {
			fmt.Fprintf(&b, " %s %.1f%%", l, 100*res.LayerShares[l])
		}
		fmt.Printf("  self-time share of the interval:%s\n", b.String())
	}
	fmt.Printf("  checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("    FAIL %s\n", f)
	}
}

// printLastLine prints the one JSON object the benchmark contract reads.
func (res *result) printLastLine() {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	names := perLayer
	if !res.Traced {
		names = nil
		for _, spec := range endToEndSpecs {
			names = append(names, spec.name)
		}
	}
	metrics := make(map[string]value, len(names))
	for _, name := range names {
		m := res.Metrics[name]
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// provenance says where a result came from.
type provenance struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	// StateFS is the filesystem type of the state directory: fsync on
	// tmpfs is not fsync on disk, so the state.* numbers only compare
	// between runs that agree on this.
	StateFS string `json:"state_fs"`
}

func gatherProvenance(stateRoot string) provenance {
	p := provenance{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     "unknown",
		StateFS:    "unknown",
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if syscall.Statfs(stateRoot, &st) == nil {
		p.StateFS = fsName(int64(st.Type))
	}
	return p
}

func fsName(magic int64) string {
	switch magic {
	case 0xef53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", magic)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
