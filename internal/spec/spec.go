// Package spec parses the netsamp scenario file format: a plain-text
// description of a topology, its traffic and a measurement task, so
// operators can run the optimizer on their own networks with
// `netsamp optimize -f network.netsamp`.
//
// Format (one directive per line; '#' starts a comment):
//
//	node    <name>
//	link    <a> <b> <capacity> <weight>     # duplex circuit
//	access  <a> <b> <capacity> <weight>     # duplex, not monitorable
//	demand  <src> <dst> <pkt/s>             # background traffic
//	pair    <src> <dst> <pkt/s>             # OD pair of the task
//	theta   <packets-per-interval>
//	interval <seconds>                      # default 300
//	maxrate <a> <b> <alpha>                 # per-direction cap
//	utility sre | detection <pkts> | log <c>  # default: sre
//
// Capacities are bits per second, or one of oc3, oc12, oc48, oc192.
// Demands and pairs are routed over shortest paths; a pair's own rate
// contributes to link loads like any demand.
package spec

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"netsamp/internal/core"
	"netsamp/internal/plan"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
	"netsamp/internal/traffic"
)

// UtilityKind selects the utility family applied to every pair.
type UtilityKind int

// Utility families supported by the file format.
const (
	UtilitySRE UtilityKind = iota
	UtilityDetection
	UtilityLog
)

// Scenario is a parsed spec file.
type Scenario struct {
	Graph    *topology.Graph
	Pairs    []routing.ODPair
	Rates    []float64 // pkt/s per pair
	Demands  *traffic.Matrix
	Theta    float64
	Interval float64
	MaxRates map[topology.LinkID]float64
	Utility  UtilityKind
	// UtilityParam is the detection footprint (packets) or log scale.
	UtilityParam float64
}

// Parse reads a scenario file.
func Parse(r io.Reader) (*Scenario, error) {
	s := &Scenario{
		Graph:    topology.New(),
		Demands:  &traffic.Matrix{},
		Interval: traffic.DefaultInterval,
		MaxRates: map[topology.LinkID]float64{},
		Utility:  UtilitySRE,
	}
	type pendingRate struct {
		a, b  string
		alpha float64
		line  int
	}
	var pendingRates []pendingRate
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("spec: line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "node":
			if len(fields) != 2 {
				return nil, fail("node wants 1 argument")
			}
			if _, ok := s.Graph.NodeByName(fields[1]); ok {
				return nil, fail("duplicate node %q", fields[1])
			}
			s.Graph.AddNode(fields[1])
		case "link", "access":
			if len(fields) != 5 {
				return nil, fail("%s wants <a> <b> <capacity> <weight>", fields[0])
			}
			a, err := s.node(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			b, err := s.node(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			if a == b {
				return nil, fail("%s endpoints are identical", fields[0])
			}
			capBps, err := parseCapacity(fields[3])
			if err != nil {
				return nil, fail("%v", err)
			}
			weight, err := strconv.Atoi(fields[4])
			if err != nil || weight <= 0 {
				return nil, fail("bad weight %q", fields[4])
			}
			fwd, rev := s.Graph.AddDuplex(a, b, capBps, weight)
			if fields[0] == "access" {
				s.Graph.MarkAccess(fwd)
				s.Graph.MarkAccess(rev)
			}
		case "demand", "pair":
			if len(fields) != 4 {
				return nil, fail("%s wants <src> <dst> <pkt/s>", fields[0])
			}
			src, err := s.node(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			dst, err := s.node(fields[2])
			if err != nil {
				return nil, fail("%v", err)
			}
			if src == dst {
				return nil, fail("%s endpoints are identical", fields[0])
			}
			rate, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || rate <= 0 {
				return nil, fail("bad rate %q", fields[3])
			}
			pr := routing.ODPair{Name: fields[1] + "->" + fields[2], Src: src, Dst: dst}
			s.Demands.Demands = append(s.Demands.Demands, traffic.Demand{Pair: pr, Rate: rate})
			if fields[0] == "pair" {
				s.Pairs = append(s.Pairs, pr)
				s.Rates = append(s.Rates, rate)
			}
		case "theta":
			if len(fields) != 2 {
				return nil, fail("theta wants 1 argument")
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || v <= 0 {
				return nil, fail("bad theta %q", fields[1])
			}
			s.Theta = v
		case "interval":
			if len(fields) != 2 {
				return nil, fail("interval wants 1 argument")
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || v <= 0 {
				return nil, fail("bad interval %q", fields[1])
			}
			s.Interval = v
		case "maxrate":
			if len(fields) != 4 {
				return nil, fail("maxrate wants <a> <b> <alpha>")
			}
			alpha, err := strconv.ParseFloat(fields[3], 64)
			if err != nil || alpha <= 0 || alpha > 1 {
				return nil, fail("bad alpha %q", fields[3])
			}
			// Links may be declared after maxrate; resolve at the end.
			pendingRates = append(pendingRates, pendingRate{fields[1], fields[2], alpha, lineNo})
		case "utility":
			if len(fields) < 2 {
				return nil, fail("utility wants a family")
			}
			switch fields[1] {
			case "sre":
				s.Utility = UtilitySRE
			case "detection":
				if len(fields) != 3 {
					return nil, fail("utility detection wants <pkts>")
				}
				v, err := strconv.ParseFloat(fields[2], 64)
				if err != nil || v < 2 {
					return nil, fail("bad detection footprint %q", fields[2])
				}
				s.Utility, s.UtilityParam = UtilityDetection, v
			case "log":
				if len(fields) != 3 {
					return nil, fail("utility log wants <c>")
				}
				v, err := strconv.ParseFloat(fields[2], 64)
				if err != nil || v <= 0 {
					return nil, fail("bad log scale %q", fields[2])
				}
				s.Utility, s.UtilityParam = UtilityLog, v
			default:
				return nil, fail("unknown utility %q", fields[1])
			}
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	for _, pr := range pendingRates {
		a, err := s.node(pr.a)
		if err != nil {
			return nil, fmt.Errorf("spec: line %d: %v", pr.line, err)
		}
		b, err := s.node(pr.b)
		if err != nil {
			return nil, fmt.Errorf("spec: line %d: %v", pr.line, err)
		}
		lid, ok := s.Graph.FindLink(a, b)
		if !ok {
			return nil, fmt.Errorf("spec: line %d: maxrate on missing link %s->%s", pr.line, pr.a, pr.b)
		}
		s.MaxRates[lid] = pr.alpha
	}
	if s.Graph.NumNodes() == 0 {
		return nil, fmt.Errorf("spec: no nodes")
	}
	if len(s.Pairs) == 0 {
		return nil, fmt.Errorf("spec: no measurement pairs")
	}
	if s.Theta <= 0 {
		return nil, fmt.Errorf("spec: theta not set")
	}
	if err := s.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return s, nil
}

func (s *Scenario) node(name string) (topology.NodeID, error) {
	id, ok := s.Graph.NodeByName(name)
	if !ok {
		return 0, fmt.Errorf("unknown node %q", name)
	}
	return id, nil
}

func parseCapacity(s string) (float64, error) {
	switch strings.ToLower(s) {
	case "oc3":
		return topology.OC3, nil
	case "oc12":
		return topology.OC12, nil
	case "oc48":
		return topology.OC48, nil
	case "oc192":
		return topology.OC192, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad capacity %q", s)
	}
	return v, nil
}

// Result is the solved plan for a scenario.
type Result struct {
	Scenario   *Scenario
	Table      *routing.Table
	Matrix     *routing.Matrix
	Loads      []float64
	Candidates []topology.LinkID
	Solution   *core.Solution
	Rates      map[topology.LinkID]float64
}

// Solve routes the scenario, builds the problem and runs the optimizer
// under the given effective-rate model (nil = core.ModelLinear).
func (s *Scenario) Solve(opt core.Options, model core.RateModel) (*Result, error) {
	tbl := routing.ComputeTable(s.Graph)
	matrix, err := routing.BuildMatrix(tbl, s.Pairs)
	if err != nil {
		return nil, err
	}
	loads, err := traffic.LinkLoads(s.Graph, tbl, s.Demands)
	if err != nil {
		return nil, err
	}
	var candidates []topology.LinkID
	for _, lid := range matrix.LinkSet() {
		if !s.Graph.Link(lid).Access {
			candidates = append(candidates, lid)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("spec: no monitorable links on the pairs' paths")
	}
	inv := make([]float64, len(s.Pairs))
	for k := range s.Pairs {
		inv[k] = 1 / (s.Rates[k] * s.Interval)
	}
	prob, err := plan.Build(plan.Input{
		Matrix:       matrix,
		Loads:        loads,
		Candidates:   candidates,
		InvMeanSizes: inv,
		Budget:       core.BudgetPerInterval(s.Theta, s.Interval),
		MaxRates:     s.MaxRates,
		Model:        model,
	})
	if err != nil {
		return nil, err
	}
	// Swap in the requested utility family (plan.Build defaults to SRE).
	switch s.Utility {
	case UtilityDetection:
		u, err := core.NewDetection(int(s.UtilityParam))
		if err != nil {
			return nil, err
		}
		for k := range prob.Utilities {
			prob.Utilities[k] = u
		}
	case UtilityLog:
		u, err := core.NewLogCoverage(s.UtilityParam)
		if err != nil {
			return nil, err
		}
		for k := range prob.Utilities {
			prob.Utilities[k] = u
		}
	}
	sol, err := core.Solve(prob, opt)
	if err != nil {
		return nil, err
	}
	return &Result{
		Scenario:   s,
		Table:      tbl,
		Matrix:     matrix,
		Loads:      loads,
		Candidates: candidates,
		Solution:   sol,
		Rates:      plan.RatesByLink(sol, candidates),
	}, nil
}
