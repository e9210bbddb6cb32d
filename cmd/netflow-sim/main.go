// Command netflow-sim deploys the optimizer's plan for the paper's
// JANET task on the NetFlow substrate and replays one full measurement
// interval of task traffic through it, packet by packet:
//
//	optimizer plan → per-link sampled flow tables → UDP export →
//	one-shard ingest collector → binning + renormalization → OD size
//	estimates,
//
// then reports the per-pair estimation accuracy, validating the sampling
// plan on the deployed pipeline rather than in closed form.
//
// Background (cross) traffic enters the budget through the link loads
// the optimizer sees; it is not replayed packet-by-packet here because
// only task packets contribute to the OD estimates (the collector's
// classifier drops everything else).
//
// Usage:
//
//	netflow-sim [-theta 100000] [-seed 1] [-scale 0.1]
//
// -scale trades fidelity for speed by scaling all traffic and θ
// together; accuracies are then those of the scaled system.
//
// A second mode, -load, turns the binary into an overload soak driver
// for the sharded ingest tier: synthetic exporters blast datagrams at a
// chosen multiple of the collector's record budget with injected wire
// faults, and the run fails unless the drop accounting balances exactly
// (and, with -require-drops, unless overload actually shed records):
//
//	netflow-sim -load -load-x 4 -load-duration 30s -require-drops
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"netsamp"
	"netsamp/internal/core"
	"netsamp/internal/eval"
	"netsamp/internal/ingest"
	"netsamp/internal/netflow"
	"netsamp/internal/packet"
	"netsamp/internal/plan"
	"netsamp/internal/prefix"
	"netsamp/internal/rng"
	"netsamp/internal/sampling"
	"netsamp/internal/topology"
	"netsamp/internal/traffic"
)

func main() {
	theta := flag.Float64("theta", 100000, "budget θ in packets per 5-minute interval")
	seed := flag.Uint64("seed", 1, "scenario and sampling seed")
	scale := flag.Float64("scale", 1, "traffic/θ scale factor (<1 runs faster but with proportionally less accurate estimates)")
	load := flag.Bool("load", false, "run the ingest overload soak instead of the accuracy replay")
	loadShards := flag.Int("load-shards", 4, "load mode: collector shards")
	loadRing := flag.Int("load-ring", 1024, "load mode: datagram ring capacity per shard")
	loadPolicy := flag.String("load-policy", "drop-newest", "load mode: overload policy (drop-newest or block)")
	loadCapacity := flag.Int("load-capacity", 250000, "load mode: per-shard record budget per second")
	loadX := flag.Float64("load-x", 4, "load mode: offered load as a multiple of aggregate capacity")
	loadDuration := flag.Duration("load-duration", 10*time.Second, "load mode: soak duration")
	loadExporters := flag.Int("load-exporters", 8, "load mode: concurrent synthetic exporters")
	loadLoss := flag.Float64("load-loss", 0.01, "load mode: per-datagram wire-loss probability (sequence skip)")
	loadDup := flag.Float64("load-dup", 0.005, "load mode: per-datagram duplicate probability")
	loadReorder := flag.Float64("load-reorder", 0.01, "load mode: per-datagram reorder probability")
	requireDrops := flag.Bool("require-drops", false, "load mode: fail unless the Overload bucket is nonzero")
	loadJSON := flag.String("load-json", "", "load mode: write the machine-readable summary to this file")
	flag.Parse()
	var err error
	if *load {
		err = runLoad(loadConfig{
			Shards:       *loadShards,
			Ring:         *loadRing,
			Policy:       *loadPolicy,
			Capacity:     *loadCapacity,
			Multiple:     *loadX,
			Duration:     *loadDuration,
			Exporters:    *loadExporters,
			Seed:         *seed,
			LossP:        *loadLoss,
			DupP:         *loadDup,
			ReorderP:     *loadReorder,
			RequireDrops: *requireDrops,
			JSONPath:     *loadJSON,
		})
	} else {
		err = run(os.Stdout, *theta, *seed, *scale)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "netflow-sim:", err)
		os.Exit(1)
	}
}

// run replays one interval and writes the report to w. Everything it
// prints except the "replayed interval in …" line is a pure function of
// (theta, seed, scale) on a loss-free loopback.
func run(w io.Writer, theta float64, seed uint64, scale float64) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("scale %v out of (0, 1]", scale)
	}
	const interval = uint32(eval.Interval)
	s, err := netsamp.BuildGEANT(seed)
	if err != nil {
		return err
	}
	// Scale the system uniformly: OD rates, link loads and θ.
	odRates := make([]float64, len(s.Rates))
	inv := make([]float64, len(s.Rates))
	for k, r := range s.Rates {
		odRates[k] = r * scale
		inv[k] = 1 / (odRates[k] * float64(interval))
	}
	loads := make([]float64, len(s.Loads))
	for i, u := range s.Loads {
		loads[i] = u * scale
	}
	theta *= scale

	prob, err := plan.Build(plan.Input{
		Matrix:       s.Matrix,
		Loads:        loads,
		Candidates:   s.MonitorLinks,
		InvMeanSizes: inv,
		Budget:       core.BudgetPerInterval(theta, float64(interval)),
	})
	if err != nil {
		return err
	}
	sol, err := core.Solve(prob, core.Options{})
	if err != nil {
		return err
	}
	planRates := plan.RatesByLink(sol, s.MonitorLinks)
	fmt.Fprintf(w, "plan: %d active monitors, θ = %.0f pkts/interval (scale %.2f), converged=%v\n",
		len(planRates), theta, scale, sol.Stats.Converged)

	// Each destination PoP owns a /24 (10.0.<k>.0/24); flow records are
	// classified back to OD pairs by longest-prefix match on the
	// destination address, the paper's egress-resolution step.
	var egress prefix.Table
	for k := range s.Pairs {
		egress.MustInsert(packet.AddrFrom4(10, 0, byte(k), 0), 24, int32(k))
	}
	collector, err := ingest.New(ingest.Config{
		Shards:          1,
		IntervalSeconds: interval,
		Rho:             sol.Rho,
		Classifier:      netflow.PrefixClassifier(&egress),
	})
	if err != nil {
		return err
	}
	if err := collector.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	defer collector.Close()
	master := rng.New(seed ^ 0xfeed)
	type monitor struct {
		link  topology.LinkID
		table *netflow.FlowTable
		exp   *netflow.Exporter
	}
	var monitors []monitor
	id := uint16(1)
	for _, lid := range s.MonitorLinks {
		p := planRates[lid]
		if p == 0 {
			continue
		}
		cfg := netflow.DefaultConfig()
		cfg.SamplingRate = p
		exp, err := netflow.NewExporter(collector.Addr(), uint32(id))
		if err != nil {
			return err
		}
		monitors = append(monitors, monitor{lid, netflow.NewFlowTable(id, cfg, master.Split()), exp})
		id++
	}

	// Replay one interval of task traffic in time-major order: flows
	// arrive as a Poisson process, spread their packets over their
	// lifetime, and the flow tables run their per-second expiry sweep —
	// the way a router actually behaves.
	start := time.Now()
	gen := rng.New(seed ^ 0xbeef)
	truth := make([]int64, len(s.Pairs))
	type liveFlow struct {
		key     packet.FiveTuple
		onPath  []monitor
		perSec  int64 // packets to emit per second while alive
		left    int64
		lastSec uint32 // final second (emits the remainder)
	}
	// Bucket flow arrivals by second.
	arrivals := make([][]*liveFlow, interval)
	for k := range s.Pairs {
		fs := traffic.GenerateTimedFlows(odRates[k], float64(interval), s.SizeDists[k], 30, gen)
		truth[k] = fs.Total
		var onPath []monitor
		for _, m := range monitors {
			if s.Matrix.Traverses(k, m.link) {
				onPath = append(onPath, m)
			}
		}
		if len(onPath) == 0 {
			continue
		}
		for fi, f := range fs.Flows {
			// Destination host drawn inside the PoP's /24.
			dst := packet.AddrFrom4(10, 0, byte(k), byte(1+fi%250))
			sec := uint32(f.Start)
			lastSec := uint32(f.Start + f.Duration)
			if lastSec >= interval {
				lastSec = interval - 1
			}
			life := int64(lastSec-sec) + 1
			lf := &liveFlow{
				key: packet.FiveTuple{
					Src:     packet.AddrFrom4(192, 168, byte(fi>>8), byte(fi)),
					Dst:     dst,
					SrcPort: uint16(1024 + fi%50000),
					DstPort: 443,
					Proto:   packet.ProtoTCP,
				},
				onPath:  onPath,
				perSec:  f.Size / life,
				left:    f.Size,
				lastSec: lastSec,
			}
			arrivals[sec] = append(arrivals[sec], lf)
		}
	}
	var live []*liveFlow
	for now := uint32(0); now < interval; now++ {
		live = append(live, arrivals[now]...)
		keep := live[:0]
		for _, lf := range live {
			emit := lf.perSec
			if now >= lf.lastSec {
				emit = lf.left // final second: flush the remainder
			}
			if emit > lf.left {
				emit = lf.left
			}
			for j := int64(0); j < emit; j++ {
				for _, m := range lf.onPath {
					if _, ev := m.table.Observe(lf.key, 1500, now); ev != nil {
						if err := m.exp.Export(ev); err != nil {
							return err
						}
					}
				}
			}
			lf.left -= emit
			if lf.left > 0 {
				keep = append(keep, lf)
			}
		}
		live = keep
		// Per-second expiry sweep on every monitor (router behaviour).
		for _, m := range monitors {
			if recs := m.table.Expire(now); len(recs) > 0 {
				if err := m.exp.Export(recs); err != nil {
					return err
				}
			}
		}
	}
	var expected, sampledTotal uint64
	for _, m := range monitors {
		if err := m.exp.Export(m.table.Flush()); err != nil {
			return err
		}
		if err := m.exp.Close(); err != nil {
			return err
		}
		st := m.table.Stats()
		expected += st.ExpiredFlows + st.EvictedFlows
		sampledTotal += st.SampledPackets
	}
	// Drain the loopback: wait until every record arrived or the intake
	// has been quiet for a while (sequence gaps report true loss below).
	deadline := time.Now().Add(10 * time.Second)
	last, lastChange := uint64(0), time.Now()
	for time.Now().Before(deadline) {
		got := collector.Snapshot().Records
		if got >= expected {
			break
		}
		if got != last {
			last, lastChange = got, time.Now()
		} else if time.Since(lastChange) > 500*time.Millisecond {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Close lets the worker drain the ring, then runs the final merge:
	// afterwards queued is zero and the books must balance exactly.
	if err := collector.Close(); err != nil {
		return err
	}
	v := collector.Snapshot()
	if err := v.CheckInvariant(); err != nil {
		return err
	}
	fmt.Fprintf(w, "replayed interval in %v; sampled %d task packets (θ=%.0f also covers cross traffic, not replayed); collector: %d of %d exported records, %d lost, dropped %d overload + %d malformed + %d shutdown + %d poisoned\n\n",
		time.Since(start).Round(time.Millisecond), sampledTotal, theta, v.Records, expected, v.LostRecords,
		v.Dropped.Overload, v.Dropped.Malformed, v.Dropped.Shutdown, v.Dropped.Poisoned)

	bins := collector.Estimates()
	if len(bins) == 0 {
		return fmt.Errorf("no estimates produced")
	}
	bin := bins[0]
	fmt.Fprintf(w, "%-12s %12s %12s %10s %10s\n", "OD pair", "actual pkts", "estimated", "accuracy", "rho")
	worst := 1.0
	for k := range s.Pairs {
		acc := sampling.Accuracy(bin.Estimate(k), float64(truth[k]))
		if acc < worst {
			worst = acc
		}
		fmt.Fprintf(w, "%-12s %12d %12.0f %10.4f %10.6f\n",
			s.Pairs[k].Name, truth[k], bin.Estimate(k), acc, sol.Rho[k])
	}
	fmt.Fprintf(w, "\nworst-pair accuracy: %.4f\n", worst)
	return nil
}
