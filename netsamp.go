// Package netsamp is an open-source implementation of the joint monitor
// activation and sampling-rate optimization of Cantieni, Iannaccone,
// Barakat, Diot and Thiran, "Reformulating the Monitor Placement
// Problem: Optimal Network-Wide Sampling" (CoNEXT 2006).
//
// Given a backbone where every link can host a NetFlow-style packet
// sampler, netsamp answers: which monitors should be activated, and at
// what sampling rate, so that a measurement task — estimating the sizes
// of a set of origin-destination (OD) pairs — is achieved with maximum
// accuracy under a network-wide resource budget θ? Placement and rate
// selection fall out of one convex program solved by gradient projection
// with KKT verification; links whose optimal rate is zero simply keep
// their monitors off.
//
// The typical workflow:
//
//	g := netsamp.NewGraph()                       // build the topology
//	... g.AddNode / g.AddDuplex ...
//	tbl := netsamp.ComputeRouting(g)              // ISIS-like SPF
//	m, _ := netsamp.BuildRoutingMatrix(tbl, pairs)
//	loads, _ := netsamp.LinkLoads(g, tbl, demands)
//	prob, _ := netsamp.BuildProblem(netsamp.PlanInput{
//	    Matrix: m, Loads: loads, Candidates: candidates,
//	    InvMeanSizes: invSizes, Budget: netsamp.BudgetPerInterval(1e5, 300),
//	})
//	sol, _ := netsamp.Solve(prob, netsamp.Options{})
//	rates := netsamp.RatesByLink(sol, candidates)  // deploy these
//
// The packages under internal/ implement the substrates (topology,
// routing, traffic, NetFlow export pipeline, sampling simulator,
// GEANT evaluation scenario); this package re-exports the public
// surface. cmd/netsamp regenerates every table and figure of the
// paper's evaluation; see DESIGN.md and EXPERIMENTS.md.
package netsamp

import (
	"netsamp/internal/control"
	"netsamp/internal/core"
	"netsamp/internal/engine"
	"netsamp/internal/geant"
	"netsamp/internal/loadtrack"
	"netsamp/internal/plan"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
	"netsamp/internal/traffic"
)

// Topology surface.
type (
	// Graph is a directed backbone multigraph of PoPs and links.
	Graph = topology.Graph
	// Node is a vertex of the graph; NodeID identifies it.
	Node = topology.Node
	// NodeID identifies a node within a Graph.
	NodeID = topology.NodeID
	// Link is a unidirectional edge; LinkID identifies it.
	Link = topology.Link
	// LinkID identifies a link within a Graph.
	LinkID = topology.LinkID
)

// SONET/SDH line rates (bits per second) for Link capacities.
const (
	OC3   = topology.OC3
	OC12  = topology.OC12
	OC48  = topology.OC48
	OC192 = topology.OC192
)

// NewGraph returns an empty topology.
func NewGraph() *Graph { return topology.New() }

// Routing surface.
type (
	// RoutingTable holds all-pairs shortest paths.
	RoutingTable = routing.Table
	// ODPair names one origin-destination pair of a measurement task.
	ODPair = routing.ODPair
	// RoutingMatrix is the per-pair link incidence (the matrix R).
	RoutingMatrix = routing.Matrix
	// Path is a directed path through the graph.
	Path = routing.Path
)

// ComputeRouting runs SPF from every node.
func ComputeRouting(g *Graph) *RoutingTable { return routing.ComputeTable(g) }

// BuildRoutingMatrix routes the OD pairs and assembles the matrix R.
func BuildRoutingMatrix(t *RoutingTable, pairs []ODPair) (*RoutingMatrix, error) {
	return routing.BuildMatrix(t, pairs)
}

// Traffic surface.
type (
	// Demand is one OD pair's offered packet rate.
	Demand = traffic.Demand
	// TrafficMatrix is a set of demands.
	TrafficMatrix = traffic.Matrix
)

// Gravity generates a gravity-model traffic matrix (see traffic.Gravity).
var Gravity = traffic.Gravity

// LinkLoads routes a traffic matrix and returns per-link packet rates.
var LinkLoads = traffic.LinkLoads

// Optimization surface (the paper's contribution).
type (
	// Problem is one instance of the network-wide sampling problem, its
	// routing rows in compressed sparse row form over dense candidate
	// indices.
	Problem = core.Problem
	// Utility scores the information of a measurement at rate ρ.
	Utility = core.Utility
	// SRE is the paper's squared-relative-error utility.
	SRE = core.SRE
	// Options tunes the gradient-projection solver.
	Options = core.Options
	// Solution is the optimizer output with its KKT certificate.
	Solution = core.Solution
	// Stats describes a solver run.
	Stats = core.Stats
)

// RateModel abstracts how per-link sampling rates combine into a pair's
// effective sampling rate (value, gradient and line-search hooks). The
// three implementations are package singletons below; a nil model in
// Problem.Model or PlanInput.Model selects ModelLinear.
type RateModel = core.RateModel

// The rate models: the paper's additive working model (7), the exact
// independent-sampling product model (1), and the cSamp-style
// coordinated model (disjoint hash ranges make the additive form exact,
// deployed as min(1, Σ f·p)).
var (
	ModelLinear           = core.ModelLinear
	ModelIndependentExact = core.ModelIndependentExact
	ModelCoordinated      = core.ModelCoordinated
)

// ModelByName resolves "linear", "exact" / "independent-exact", or
// "coordinated" to its RateModel.
var ModelByName = core.ModelByName

// NewSRE builds the SRE utility for mean inverse OD size c = E[1/S].
var NewSRE = core.NewSRE

// Solve runs the gradient projection method and returns the optimum.
var Solve = core.Solve

// BudgetPerInterval converts θ packets-per-interval into the sampled
// packet rate used by Problem.Budget.
var BudgetPerInterval = core.BudgetPerInterval

// Planning surface: mapping between topology links and problems.
type (
	// PlanInput assembles a problem from substrate objects.
	PlanInput = plan.Input
)

// BuildProblem maps a PlanInput onto a Problem whose link i is
// PlanInput.Candidates[i].
var BuildProblem = plan.Build

// RatesByLink maps a Solution's rates back to topology links.
var RatesByLink = plan.RatesByLink

// EffectiveRates computes per-pair deployed effective sampling rates of
// any per-link rate assignment under a rate model (nil = ModelLinear).
var EffectiveRates = plan.EffectiveRates

// SampledRate returns Σ p_i·U_i of a per-link assignment.
var SampledRate = plan.SampledRate

// Coordination surface: cSamp-style hash-range assignments that deploy
// a coordinated plan on the netflow substrate.
type (
	// Coordination is the full coordinated-deployment assignment built
	// from a solved plan (see plan.Coordinate).
	Coordination = plan.Coordination
	// PairAssignment is one OD pair's hash-space partition.
	PairAssignment = plan.PairAssignment
)

// Coordinate partitions each pair's flow-hash space among the monitors
// on its path, proportionally to their sampling effort.
var Coordinate = plan.Coordinate

// Continuation surface: solver workspaces reused across families of
// related instances (θ-sweeps, successive measurement intervals).
type (
	// Solver is a reusable compiled workspace for one problem structure;
	// SetBudget/SetLoads re-tune it between solves without revalidation
	// of the unchanged fields.
	Solver = core.Solver
	// CompiledPlan couples a built Problem with its compiled Solver and
	// the link bookkeeping, re-tunable via Retune.
	CompiledPlan = plan.Compiled
	// PlanCache memoizes CompiledPlan values by problem identity
	// (routing matrix, candidate set, rate model).
	PlanCache = plan.Cache
)

// NewSolver compiles a Problem into a reusable solver workspace.
var NewSolver = core.NewSolver

// CompilePlan builds and compiles a PlanInput into a CompiledPlan.
var CompilePlan = plan.Compile

// NewPlanCache returns an empty compiled-plan cache.
var NewPlanCache = plan.NewCache

// Scenario surface: the paper's GEANT evaluation setting.
type (
	// GEANTScenario is the synthetic GEANT-2004 evaluation scenario.
	GEANTScenario = geant.Scenario
)

// BuildGEANT constructs the synthetic GEANT scenario for a seed.
var BuildGEANT = geant.Build

// ECMP surface: equal-cost multipath routing with fractional matrix
// entries (see routing.BuildMatrixECMP).

// BuildRoutingMatrixECMP routes OD pairs over the full equal-cost DAG,
// producing fractional routing-matrix entries.
var BuildRoutingMatrixECMP = routing.BuildMatrixECMP

// LinkLoadsECMP accumulates per-link loads with equal-cost splitting.
var LinkLoadsECMP = traffic.LinkLoadsECMP

// Additional utility families (the paper's Section VI directions).
type (
	// Detection is the anomaly-detection utility 1-(1-ρ)^Size.
	Detection = core.Detection
	// LogCoverage is the proportional-fairness coverage utility.
	LogCoverage = core.LogCoverage
)

// NewDetection builds the anomaly-detection utility for events of the
// given packet footprint.
var NewDetection = core.NewDetection

// NewLogCoverage builds the log coverage utility with scale c.
var NewLogCoverage = core.NewLogCoverage

// Diurnal is a day-shaped traffic profile for multi-interval studies.
type Diurnal = traffic.Diurnal

// SolveMaxMinExact computes the certified max-min optimum by bisection
// over LP feasibility probes (see core.SolveMaxMinExact).
var SolveMaxMinExact = core.SolveMaxMinExact

// Inverter is implemented by utilities with a closed-form inverse.
type Inverter = core.Inverter

// Controller surface: continuous operation of the optimizer with load
// smoothing and activation hysteresis (internal/control).
type (
	// Controller re-optimizes per interval with churn suppression.
	Controller = control.Controller
	// ControllerOptions tunes the controller.
	ControllerOptions = control.Options
	// ControllerStepInput gathers one interval's observations for
	// Controller.StepResilient, the controller's single entry point.
	ControllerStepInput = control.StepInput
	// ControllerDecision is the per-interval output.
	ControllerDecision = control.Decision
)

// NewController builds a monitoring controller.
var NewController = control.New

// Robustness surface: confidence-bounded load tracking and robust
// solving (internal/loadtrack, Solver.SolveRobust, control robust mode).
type (
	// LoadTracker maintains per-link load confidence intervals from the
	// monitors' own sampled observations.
	LoadTracker = loadtrack.Tracker
	// LoadTrackerConfig tunes a LoadTracker.
	LoadTrackerConfig = loadtrack.Config
	// LoadTrackerState is a tracker's serializable snapshot.
	LoadTrackerState = loadtrack.State
	// RobustMode selects which edge of the load confidence envelope a
	// robust solve optimizes against.
	RobustMode = core.RobustMode
	// RobustControllerOptions configures a controller's uncertainty-aware
	// operation (posture, exploration reserve, confidence widening).
	RobustControllerOptions = control.RobustOptions
)

// Robust solving postures.
const (
	RobustOff         = core.RobustOff
	RobustPessimistic = core.RobustPessimistic
	RobustOptimistic  = core.RobustOptimistic
)

// RobustModeByName resolves "off", "pessimistic" or "optimistic".
var RobustModeByName = core.RobustModeByName

// NewLoadTracker builds a confidence-interval load tracker.
var NewLoadTracker = loadtrack.New

// Internet-scale surface: sharded kernels, the Frank-Wolfe
// approximation with its duality-gap certificate, and the deterministic
// ISP-like topology generator (internal/topology, core shard/approx,
// plan.BuildScale).
type (
	// ApproxOptions tunes SolveApprox, the Frank-Wolfe approximation
	// with a certified duality gap (Solver.SolveApprox /
	// Solver.SolveApproxInto; see also Solver.Shard).
	ApproxOptions = core.ApproxOptions
	// ControllerApproxPolicy is the controller's deadline-aware routing
	// between the exact and approximate solvers.
	ControllerApproxPolicy = control.ApproxPolicy
	// WorkerPool is a persistent worker pool for sharded solver kernels
	// (attach with Solver.Shard; results stay bit-identical at any
	// worker count).
	WorkerPool = engine.Pool
	// WorkerPoolPanicError reports a panic captured inside a pool loop.
	WorkerPoolPanicError = engine.PoolPanicError
	// TopologyGenConfig parameterizes the deterministic hierarchical
	// ISP-like topology generator tier by tier.
	TopologyGenConfig = topology.GenConfig
	// TopologyScaleConfig is the size-first generator configuration
	// (target link count; tiers derived).
	TopologyScaleConfig = topology.ScaleConfig
	// ScaleInstance is one generated instance: graph, loads and the
	// routing incidence already in CSR form.
	ScaleInstance = topology.ScaleInstance
)

// NewWorkerPool builds a persistent worker pool (workers <= 0 selects
// GOMAXPROCS).
var NewWorkerPool = engine.NewPool

// GenerateTopology builds a deterministic hierarchical instance from an
// explicit tier configuration.
var GenerateTopology = topology.Generate

// GenerateScaleTopology builds an instance sized to a target link count.
var GenerateScaleTopology = topology.GenerateScale

// BuildScaleProblem maps a generated ScaleInstance onto a Problem.
var BuildScaleProblem = plan.BuildScale
