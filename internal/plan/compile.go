package plan

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"netsamp/internal/core"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

// Compiled couples a compiled core.Solver with the candidate-set
// bookkeeping, so a family of related instances — a θ-sweep, randomized
// restarts, successive measurement intervals — validates and compiles
// the CSR incidence once and re-tunes the numeric fields in place
// between solves.
//
// A Compiled is not safe for concurrent use (it wraps a core.Solver);
// run one per worker, or hand out entries of a Cache under distinct
// keys.
type Compiled struct {
	solver *core.Solver
	cands  []topology.LinkID
	// model is the compiled rate model's identity (core.ModelName).
	model string

	// inv holds the InvMeanSizes the per-pair SRE utilities were built
	// from; Retune rebuilds utilities only when these change.
	inv []float64
	// denseLoads is the candidate-ordered load scratch Retune fills from
	// the per-LinkID load table.
	denseLoads []float64
	// ones backs Retune's weight reset when Input.Weights is nil.
	ones []float64
}

// Compile builds the problem for in (see Build) and compiles it into a
// reusable solver workspace.
func Compile(in Input) (*Compiled, error) {
	prob, err := Build(in)
	if err != nil {
		return nil, err
	}
	solver, err := core.NewSolver(prob)
	if err != nil {
		return nil, err
	}
	return &Compiled{
		solver:     solver,
		cands:      append([]topology.LinkID(nil), in.Candidates...),
		model:      core.ModelName(in.Model),
		inv:        append([]float64(nil), in.InvMeanSizes...),
		denseLoads: make([]float64, len(in.Candidates)),
	}, nil
}

// Solver returns the compiled workspace.
func (c *Compiled) Solver() *core.Solver { return c.solver }

// Candidates returns the candidate links in dense order (read-only).
func (c *Compiled) Candidates() []topology.LinkID { return c.cands }

// Retune re-points the compiled pair at in's numeric fields — Budget,
// Loads, InvMeanSizes and Weights — without recompiling. in must carry
// the same problem structure the pair was compiled from: the same
// routing-matrix rows, candidate set and rate model (a Cache keys on
// exactly that identity). Re-validation is limited to what changed.
func (c *Compiled) Retune(in Input) error {
	if core.ModelName(in.Model) != c.model {
		return fmt.Errorf("plan: retune changes the rate model %s -> %s (structure change; recompile)", c.model, core.ModelName(in.Model))
	}
	if len(in.Candidates) != len(c.cands) {
		return fmt.Errorf("plan: retune with %d candidates for a %d-candidate compile (structure change; recompile)", len(in.Candidates), len(c.cands))
	}
	nPairs := len(c.inv)
	if len(in.InvMeanSizes) != nPairs {
		return fmt.Errorf("plan: %d InvMeanSizes for %d pairs", len(in.InvMeanSizes), nPairs)
	}
	if in.Weights != nil && len(in.Weights) != nPairs {
		return fmt.Errorf("plan: %d Weights for %d pairs", len(in.Weights), nPairs)
	}
	for j, lid := range c.cands {
		if int(lid) < 0 || int(lid) >= len(in.Loads) {
			return fmt.Errorf("plan: candidate link %d outside load table", lid)
		}
		c.denseLoads[j] = in.Loads[lid]
	}
	// Order matters: each setter re-checks feasibility against the other
	// field's current value. A jointly feasible (budget, loads) pair
	// always passes when a shrinking budget is applied first (it fits
	// the old loads' bound a fortiori) and a growing one after the new
	// loads (whose bound it fits by assumption).
	if in.Budget <= c.solver.Problem().Budget {
		if err := c.solver.SetBudget(in.Budget); err != nil {
			return err
		}
		if err := c.solver.SetLoads(c.denseLoads); err != nil {
			return err
		}
	} else {
		if err := c.solver.SetLoads(c.denseLoads); err != nil {
			return err
		}
		if err := c.solver.SetBudget(in.Budget); err != nil {
			return err
		}
	}
	changed := false
	for k, v := range in.InvMeanSizes {
		//netsamp:floateq-ok bitwise change detection decides whether to re-push parameters
		if v != c.inv[k] {
			changed = true
			break
		}
	}
	if changed {
		us := make([]core.Utility, nPairs)
		for k, v := range in.InvMeanSizes {
			u, err := core.NewSRE(v)
			if err != nil {
				return fmt.Errorf("plan: pair %d: %w", k, err)
			}
			us[k] = u
		}
		if err := c.solver.SetUtilities(us); err != nil {
			return err
		}
		copy(c.inv, in.InvMeanSizes)
	}
	w := in.Weights
	if w == nil {
		// Explicit reset: Solver.SetWeights(nil) restores the weights
		// baked in at compile time, which is wrong when the compile-time
		// Input carried weights and this interval does not.
		if c.ones == nil {
			c.ones = make([]float64, nPairs)
			for k := range c.ones {
				c.ones[k] = 1
			}
		}
		w = c.ones
	}
	return c.solver.SetWeights(w)
}

// cacheKey is the problem identity a Cache memoizes on: the routing
// matrix (by pointer — rebuilding a matrix signals a routing change),
// the candidate-set contents and the rate model's name (so two models
// with the same matrix and candidates can never alias one compiled
// plan). Everything else about an Input is numeric re-tuning.
type cacheKey struct {
	matrix *routing.Matrix
	cands  string
	model  string
}

func candsFingerprint(cands []topology.LinkID) string {
	var b strings.Builder
	for i, lid := range cands {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(lid)))
	}
	return b.String()
}

// Cache memoizes Compiled pairs by problem identity, so sweep and
// per-interval loops that re-state the same structure with different
// budgets, loads or utility parameters skip re-validation and
// recompilation. A routing change (a new matrix) or a candidate-set
// change is a miss by construction — exactly the topology-change
// boundary at which a rebuild is genuinely required.
//
// Get itself is safe for concurrent use, but a Compiled entry is not:
// concurrent callers must solve under distinct keys (as the controller's
// full/retained pair does) or use distinct Caches (as the study chunks
// do).
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*Compiled
	hits    int
	misses  int
	// maxEntries bounds the map; exceeding it resets the cache (the
	// loops this serves cycle through a handful of identities, so a
	// full reset beats LRU bookkeeping).
	maxEntries int
}

// NewCache returns an empty cache holding up to 64 compiled pairs.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*Compiled), maxEntries: 64}
}

// Get returns the compiled pair for in's identity, compiling it on a
// miss and re-tuning the numeric fields (budget, loads, utility
// parameters, weights) on a hit. The returned Compiled is owned by the
// cache; see the Cache doc for the concurrency contract.
func (c *Cache) Get(in Input) (*Compiled, error) {
	if in.Matrix == nil {
		return nil, fmt.Errorf("plan: nil routing matrix")
	}
	key := cacheKey{matrix: in.Matrix, cands: candsFingerprint(in.Candidates), model: core.ModelName(in.Model)}
	c.mu.Lock()
	ent := c.entries[key]
	c.mu.Unlock()
	if ent != nil {
		if err := ent.Retune(in); err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return ent, nil
	}
	ent, err := Compile(in)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if len(c.entries) >= c.maxEntries {
		c.entries = make(map[cacheKey]*Compiled)
	}
	c.entries[key] = ent
	c.misses++
	c.mu.Unlock()
	return ent, nil
}

// Len returns the number of cached compiled pairs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns how many Get calls reused a compiled pair (hits) and
// how many had to compile (misses).
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Reset drops every cached pair.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[cacheKey]*Compiled)
}
