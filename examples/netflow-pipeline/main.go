// NetFlow pipeline: the deployed system end to end.
//
// The optimizer's output is a sampling plan; this example deploys it on
// the router-embedded monitoring substrate and runs the paper's whole
// measurement pipeline over real sockets:
//
//	flow generation → per-link sampled flow tables → UDP export with
//	sequence numbers → ingest collector → 5-minute binning →
//	renormalization by 1/ρ → OD size estimates (paper, Section V-A).
//
// A small three-PoP network carries two OD pairs; the optimizer decides
// where to sample; each monitored link runs a netflow.FlowTable; records
// travel over loopback UDP to a one-shard ingest.Collector, which bins
// and renormalizes them; the per-pair size estimates are compared
// against the ground truth.
//
// Run with:
//
//	go run ./examples/netflow-pipeline
package main

import (
	"fmt"
	"log"
	"time"

	"netsamp"
	"netsamp/internal/ingest"
	"netsamp/internal/netflow"
	"netsamp/internal/packet"
	"netsamp/internal/rng"
	"netsamp/internal/traffic"
)

const interval = 300 // seconds

func main() {
	// --- Network and plan ----------------------------------------------
	g := netsamp.NewGraph()
	a, b, c := g.AddNode("A"), g.AddNode("B"), g.AddNode("C")
	ab, _ := g.AddDuplex(a, b, netsamp.OC48, 10)
	bc, _ := g.AddDuplex(b, c, netsamp.OC12, 10)
	tbl := netsamp.ComputeRouting(g)
	pairs := []netsamp.ODPair{
		{Name: "A->B", Src: a, Dst: b},
		{Name: "A->C", Src: a, Dst: c},
	}
	matrix, err := netsamp.BuildRoutingMatrix(tbl, pairs)
	if err != nil {
		log.Fatal(err)
	}
	odRates := []float64{800, 120} // pkt/s
	demands := &netsamp.TrafficMatrix{Demands: []netsamp.Demand{
		{Pair: pairs[0], Rate: odRates[0]},
		{Pair: pairs[1], Rate: odRates[1]},
		{Pair: netsamp.ODPair{Name: "B->C", Src: b, Dst: c}, Rate: 300},
	}}
	loads, err := netsamp.LinkLoads(g, tbl, demands)
	if err != nil {
		log.Fatal(err)
	}
	candidates := []netsamp.LinkID{ab, bc}
	prob, err := netsamp.BuildProblem(netsamp.PlanInput{
		Matrix:       matrix,
		Loads:        loads,
		Candidates:   candidates,
		InvMeanSizes: []float64{1 / (odRates[0] * interval), 1 / (odRates[1] * interval)},
		Budget:       netsamp.BudgetPerInterval(20000, interval),
	})
	if err != nil {
		log.Fatal(err)
	}
	sol, err := netsamp.Solve(prob, netsamp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	planRates := netsamp.RatesByLink(sol, candidates)
	fmt.Println("Sampling plan:")
	for _, lid := range candidates {
		fmt.Printf("  %-6s p=%.6f\n", g.LinkName(lid), planRates[lid])
	}

	// --- Deploy: collector, one exporter+flow table per monitored link --
	// OD pairs are distinguished by destination address: 10.0.0.<pair>.
	classify := func(k packet.FiveTuple) (int, bool) {
		switch k.Dst {
		case packet.AddrFrom4(10, 0, 0, 1):
			return 0, true
		case packet.AddrFrom4(10, 0, 0, 2):
			return 1, true
		}
		return 0, false
	}
	collector, err := ingest.New(ingest.Config{
		Shards:          1,
		IntervalSeconds: interval,
		Rho:             sol.Rho,
		Classifier:      classify,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := collector.Listen("127.0.0.1:0"); err != nil {
		log.Fatal(err)
	}
	master := rng.New(2026)
	type monitor struct {
		link  netsamp.LinkID
		table *netflow.FlowTable
		exp   *netflow.Exporter
	}
	var monitors []monitor
	for i, lid := range candidates {
		p := planRates[lid]
		if p == 0 {
			continue
		}
		cfg := netflow.DefaultConfig()
		cfg.SamplingRate = p
		exp, err := netflow.NewExporter(collector.Addr(), uint32(i+1))
		if err != nil {
			log.Fatal(err)
		}
		monitors = append(monitors, monitor{
			link:  lid,
			table: netflow.NewFlowTable(uint16(i+1), cfg, master.Split()),
			exp:   exp,
		})
	}

	// --- Generate one measurement interval of traffic -------------------
	// Each OD pair is decomposed into heavy-tailed flows; every packet of
	// a flow is offered to the flow table of each monitored link on the
	// pair's path (i.i.d. sampling per monitor).
	dist := traffic.NewParetoSize(60, 2.0, 500000)
	gen := rng.New(7)
	truth := make([]int64, len(pairs))
	for k := range pairs {
		fs := traffic.GenerateFlows(odRates[k], interval, dist, gen)
		truth[k] = fs.Total
		var onPath []monitor
		for _, m := range monitors {
			if matrix.Traverses(k, m.link) {
				onPath = append(onPath, m)
			}
		}
		dst := packet.AddrFrom4(10, 0, 0, byte(k+1))
		for fi, size := range fs.Sizes {
			key := packet.FiveTuple{
				Src:     packet.AddrFrom4(192, 168, byte(k), byte(fi%251)),
				Dst:     dst,
				SrcPort: uint16(1024 + fi%50000),
				DstPort: 443,
				Proto:   packet.ProtoTCP,
			}
			// Spread the flow's packets across the interval (1-second
			// resolution keeps the table's timeout machinery honest).
			perSec := size/interval + 1
			var sent int64
			for now := uint32(0); now < interval && sent < size; now++ {
				for j := int64(0); j < perSec && sent < size; j++ {
					for _, m := range onPath {
						if _, ev := m.table.Observe(key, 1500, now); ev != nil {
							if err := m.exp.Export(ev); err != nil {
								log.Fatal(err)
							}
						}
					}
					sent++
				}
			}
		}
	}
	// End of interval: expire and flush everything, then close exporters.
	var expected uint64
	for _, m := range monitors {
		if err := m.exp.Export(m.table.Flush()); err != nil {
			log.Fatal(err)
		}
		if err := m.exp.Close(); err != nil {
			log.Fatal(err)
		}
		st := m.table.Stats()
		expected += st.ExpiredFlows + st.EvictedFlows
		fmt.Printf("monitor %-6s observed %8d pkts, sampled %6d, exported %5d flow records\n",
			g.LinkName(m.link), st.ObservedPackets, st.SampledPackets, st.ExpiredFlows+st.EvictedFlows)
	}
	// Wait for the loopback datagrams to drain, then close the collector:
	// Close drains the ring and runs the final merge.
	deadline := time.Now().Add(5 * time.Second)
	for collector.Snapshot().Records < expected && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if err := collector.Close(); err != nil {
		log.Fatal(err)
	}
	v := collector.Snapshot()
	fmt.Printf("collector: %d datagrams, %d records, %d lost records, %d malformed\n\n",
		v.Datagrams, v.Records, v.LostRecords, v.MalformedDatagrams)

	// --- Report ---------------------------------------------------------
	fmt.Printf("%-8s %12s %12s %10s\n", "OD pair", "actual pkts", "estimated", "accuracy")
	for _, bin := range collector.Estimates() {
		for k := range pairs {
			estimate := bin.Estimate(k)
			acc := 1 - abs(estimate-float64(truth[k]))/float64(truth[k])
			fmt.Printf("%-8s %12d %12.0f %10.4f\n", pairs[k].Name, truth[k], estimate, acc)
		}
	}
	fmt.Println("\nThe renormalized estimates X/ρ recover the OD sizes from a few")
	fmt.Println("thousand sampled packets — the paper's pipeline, over real UDP.")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
