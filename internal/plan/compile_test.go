package plan

import (
	"errors"
	"math"
	"strings"
	"testing"

	"netsamp/internal/core"
	"netsamp/internal/routing"
	"netsamp/internal/topology"
)

func fixtureInput(t *testing.T) Input {
	t.Helper()
	_, m, loads, cands := fixture(t)
	return Input{
		Matrix:       m,
		Loads:        loads,
		Candidates:   cands,
		InvMeanSizes: []float64{0.002, 0.001},
		Budget:       10,
	}
}

// sameSolution compares two solutions bit for bit: a retuned compile
// must be indistinguishable from a fresh one.
func sameSolution(t *testing.T, got, want *core.Solution, label string) {
	t.Helper()
	if got.Objective != want.Objective || got.Lambda != want.Lambda {
		t.Fatalf("%s: objective/lambda differ: (%v, %v) vs (%v, %v)",
			label, got.Objective, got.Lambda, want.Objective, want.Lambda)
	}
	for i := range got.Rates {
		if got.Rates[i] != want.Rates[i] {
			t.Fatalf("%s: rate %d differs: %v vs %v", label, i, got.Rates[i], want.Rates[i])
		}
	}
}

// TestRetuneMatchesFreshCompile: solving a retuned Compiled must match
// a fresh Build+Solve of the retuned input exactly, across budget
// shrink/grow, load drift, utility-parameter drift and weight changes.
func TestRetuneMatchesFreshCompile(t *testing.T) {
	base := fixtureInput(t)
	comp, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name   string
		mutate func(in *Input)
	}{
		{"budget-shrink", func(in *Input) { in.Budget = 4 }},
		{"budget-grow", func(in *Input) { in.Budget = 25 }},
		{"loads-drift", func(in *Input) {
			in.Loads = append([]float64(nil), in.Loads...)
			for i := range in.Loads {
				in.Loads[i] *= 1.3
			}
		}},
		{"sizes-drift", func(in *Input) { in.InvMeanSizes = []float64{0.003, 0.0015} }},
		{"weights-on", func(in *Input) { in.Weights = []float64{2, 1} }},
		{"weights-off-again", func(in *Input) {}},
	}
	for _, v := range variants {
		in := base
		v.mutate(&in)
		if err := comp.Retune(in); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		got, err := comp.Solver().Solve(core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		fresh, err := Compile(in)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		want, err := fresh.Solver().Solve(core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		sameSolution(t, got, want, v.name)
	}
}

// TestRetuneStructureChanges: re-tuning may only touch numeric fields;
// a different candidate set, rate model or pair count must be refused.
func TestRetuneStructureChanges(t *testing.T) {
	base := fixtureInput(t)
	comp, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	exact := base
	exact.Model = core.ModelIndependentExact
	if err := comp.Retune(exact); err == nil {
		t.Fatal("rate-model change accepted")
	}
	fewer := base
	fewer.Candidates = base.Candidates[:1]
	if err := comp.Retune(fewer); err == nil {
		t.Fatal("candidate-set change accepted")
	}
	sizes := base
	sizes.InvMeanSizes = []float64{0.002}
	if err := comp.Retune(sizes); err == nil {
		t.Fatal("pair-count change accepted")
	}
	badW := base
	badW.Weights = []float64{1}
	if err := comp.Retune(badW); err == nil {
		t.Fatal("wrong-length weights accepted")
	}
	short := base
	short.Loads = base.Loads[:1]
	if err := comp.Retune(short); err == nil {
		t.Fatal("load table missing a candidate accepted")
	}
	// The failed retunes must not have corrupted the workspace.
	if err := comp.Retune(base); err != nil {
		t.Fatalf("retune back to base: %v", err)
	}
	got, err := comp.Solver().Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := Compile(base)
	want, err := fresh.Solver().Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, got, want, "after failed retunes")
}

// TestCacheRejectsNonFiniteWeightOnHitAndMiss: a NaN or Inf weight must
// be the same typed rejection whether Get compiles (Validate) or re-tunes
// a cached entry (SetWeights) — and the rejected hit must leave the entry
// solving as before.
func TestCacheRejectsNonFiniteWeightOnHitAndMiss(t *testing.T) {
	base := fixtureInput(t)
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		bad := base
		bad.Weights = []float64{1, w}
		cache := NewCache()
		_, missErr := cache.Get(bad)
		ent, err := cache.Get(base)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ent.Solver().Solve(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, hitErr := cache.Get(bad)
		for label, err := range map[string]error{"miss": missErr, "hit": hitErr} {
			var ie *core.InputError
			if !errors.As(err, &ie) || !errors.Is(err, core.ErrInvalidInput) {
				t.Fatalf("weight %v, %s: error %v is not a core.InputError", w, label, err)
			}
			if !strings.HasPrefix(ie.Field, "pair 1 ") || !strings.HasSuffix(ie.Field, "weight") {
				t.Fatalf("weight %v, %s: error names %q, want pair 1's weight", w, label, ie.Field)
			}
		}
		if _, err := cache.Get(base); err != nil {
			t.Fatal(err)
		}
		got, err := ent.Solver().Solve(core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, got, want, "after the rejected hit")
	}
}

// TestCacheIdentity: the cache must hit on the same (matrix, candidate
// set, rate model) identity and miss when any of the three changes.
func TestCacheIdentity(t *testing.T) {
	base := fixtureInput(t)
	cache := NewCache()

	first, err := cache.Get(base)
	if err != nil {
		t.Fatal(err)
	}
	retuned := base
	retuned.Budget = 5
	second, err := cache.Get(retuned)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("same identity did not reuse the compiled pair")
	}
	if got := second.Solver().Problem().Budget; got != 5 {
		t.Fatalf("hit did not retune the budget: %v", got)
	}
	if h, m := cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 1)", h, m)
	}

	// The rate model is part of the identity.
	exact := base
	exact.Model = core.ModelIndependentExact
	third, err := cache.Get(exact)
	if err != nil {
		t.Fatal(err)
	}
	if third == first {
		t.Fatal("exact and linear models shared a compiled pair")
	}

	// A reversed candidate order is a different dense layout.
	rev := base
	rev.Candidates = []topology.LinkID{base.Candidates[1], base.Candidates[0]}
	fourth, err := cache.Get(rev)
	if err != nil {
		t.Fatal(err)
	}
	if fourth == first {
		t.Fatal("different candidate order shared a compiled pair")
	}

	// A rebuilt matrix (same contents, new pointer) signals a routing
	// change and must miss.
	other := fixtureInput(t)
	fifth, err := cache.Get(other)
	if err != nil {
		t.Fatal(err)
	}
	if fifth == first {
		t.Fatal("distinct matrices shared a compiled pair")
	}
	if cache.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", cache.Len())
	}

	cache.Reset()
	if cache.Len() != 0 {
		t.Fatal("reset left entries behind")
	}
	if _, err := cache.Get(Input{}); err == nil {
		t.Fatal("nil matrix accepted")
	}
}

// TestCacheBound: overflowing maxEntries resets the cache instead of
// growing without bound.
func TestCacheBound(t *testing.T) {
	base := fixtureInput(t)
	cache := NewCache()
	cache.maxEntries = 3
	mats := make([]*routing.Matrix, 5)
	for i := range mats {
		in := fixtureInput(t)
		mats[i] = in.Matrix
		if _, err := cache.Get(in); err != nil {
			t.Fatal(err)
		}
		if cache.Len() > 3 {
			t.Fatalf("cache grew to %d entries past the bound", cache.Len())
		}
	}
	// The cache still works after the reset.
	if _, err := cache.Get(base); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCompile builds and compiles the 800-link ECMP instance
// (21 170 pairs, 178 496 matrix entries): the plan-cache miss a reroute
// interval pays once or twice.
func BenchmarkCompile(b *testing.B) {
	m, links := scaleMatrix(b, topology.ScaleConfig{Seed: 3, Links: 800})
	in := Input{
		Matrix:       m,
		Loads:        make([]float64, links),
		Candidates:   make([]topology.LinkID, links),
		InvMeanSizes: make([]float64, len(m.Pairs)),
	}
	for i := range in.Loads {
		in.Loads[i] = 1000 + float64(i)
		in.Candidates[i] = topology.LinkID(i)
		in.Budget += 0.03 * in.Loads[i]
	}
	for k := range in.InvMeanSizes {
		in.InvMeanSizes[k] = 1e-4
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(in); err != nil {
			b.Fatal(err)
		}
	}
}
