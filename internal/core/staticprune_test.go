package core

import (
	"sort"
	"strings"
	"testing"

	"hmc/internal/axenum"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// sortedKeys returns the execution-key set of a CollectKeys run, sorted.
func sortedKeys(res *Result) []string {
	keys := append([]string(nil), res.Keys...)
	sort.Strings(keys)
	return keys
}

// assertPruneEquivalent is the central cross-validation assertion: the
// pruned explorer (Options.StaticAnalysis) must visit exactly the same
// execution set as the unpruned one — same canonical keys, not just the
// same count — with the CheckDeps sanitizer silent throughout.
func assertPruneEquivalent(t *testing.T, name string, p *prog.Program, model string) (base, pruned *Result) {
	t.Helper()
	base = explore(t, p, model, Options{CollectKeys: true})
	pruned = explore(t, p, model, Options{
		CollectKeys:    true,
		StaticAnalysis: true,
		CheckDeps:      true,
	})
	if got, want := sortedKeys(pruned), sortedKeys(base); strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("%s under %s: pruned execution set differs from unpruned (%d vs %d executions)\nprogram:\n%v",
			name, model, len(got), len(want), p)
	}
	if pruned.Executions != base.Executions || pruned.ExistsCount != base.ExistsCount ||
		pruned.Blocked != base.Blocked || len(pruned.Errors) != len(base.Errors) {
		t.Errorf("%s under %s: pruned stats diverge: execs %d/%d exists %d/%d blocked %d/%d errors %d/%d",
			name, model, pruned.Executions, base.Executions, pruned.ExistsCount, base.ExistsCount,
			pruned.Blocked, base.Blocked, len(pruned.Errors), len(base.Errors))
	}
	assertDistinctKeys(t, name+" under "+model+" (pruned)", pruned)
	if pruned.StuckReads != 0 {
		t.Errorf("%s under %s: pruned run has %d stuck reads", name, model, pruned.StuckReads)
	}
	if pruned.DepViolations != 0 {
		t.Errorf("%s under %s: %d dynamic deps outside static sets:\n%s",
			name, model, pruned.DepViolations, strings.Join(pruned.DepViolationDetails, "\n"))
	}
	return base, pruned
}

// TestStaticPruningCorpus cross-validates pruning on every litmus-corpus
// program under every registered model.
func TestStaticPruningCorpus(t *testing.T) {
	models := memmodel.Names()
	if testing.Short() {
		models = []string{"sc", "tso", "imm"}
	}
	for _, tc := range litmus.Corpus() {
		for _, model := range models {
			assertPruneEquivalent(t, tc.Name, tc.P, model)
		}
	}
}

// TestStaticPruningAgainstAxenum closes the triangle: the pruned explorer
// must also match the independent herd-style reference enumeration (which
// shares no code with the exploration engine or the static analyzer).
// "relaxed" is excluded for the documented reason (the value oracle
// manufactures out-of-thin-air executions constructive exploration never
// builds, see internal/crossval).
func TestStaticPruningAgainstAxenum(t *testing.T) {
	models := []string{"sc", "tso", "imm"}
	for _, tc := range litmus.Corpus() {
		for _, model := range models {
			m, err := memmodel.ByName(model)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := axenum.Explore(tc.P, axenum.Options{Model: m})
			if err != nil {
				t.Fatal(err)
			}
			pruned := explore(t, tc.P, model, Options{CollectKeys: true, StaticAnalysis: true})
			if pruned.Executions != ref.Consistent {
				t.Errorf("%s under %s: pruned explorer found %d executions, reference %d",
					tc.Name, model, pruned.Executions, ref.Consistent)
			}
			for _, k := range pruned.Keys {
				if !ref.Keys[k] {
					t.Errorf("%s under %s: pruned explorer produced an execution the reference lacks",
						tc.Name, model)
				}
			}
		}
	}
}

// TestStaticPruningRandom cross-validates pruning on generated programs —
// the acceptance bar is 500 programs; -short trims the tail, the full run
// covers all of them under two models with different fence semantics.
func TestStaticPruningRandom(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 100
	}
	for seed := int64(0); seed < int64(n); seed++ {
		p := gen.Random(seed)
		for _, model := range []string{"tso", "imm"} {
			assertPruneEquivalent(t, p.Name, p, model)
		}
	}
}

// TestStaticPruningRandomAgainstAxenum spot-checks the random population
// against the reference enumerator too (size-gated exactly like the
// crossval suite keeps the exponential candidate enumeration tractable).
func TestStaticPruningRandomAgainstAxenum(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 40
	}
	m, err := memmodel.ByName("imm")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < int64(n); seed++ {
		p := gen.Random(seed)
		size := 0
		for _, th := range p.Threads {
			size += len(th)
		}
		if size > 7 {
			continue
		}
		ref, err := axenum.Explore(p, axenum.Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		pruned := explore(t, p, "imm", Options{StaticAnalysis: true, CheckDeps: true})
		if pruned.Executions != ref.Consistent {
			t.Errorf("%s under imm: pruned explorer found %d executions, reference %d\n%v",
				p.Name, pruned.Executions, ref.Consistent, p)
		}
		if pruned.DepViolations != 0 {
			t.Errorf("%s: %d dep violations:\n%s", p.Name, pruned.DepViolations,
				strings.Join(pruned.DepViolationDetails, "\n"))
		}
	}
}

// TestStaticPruningFamilies covers the parametric families: the
// thread-local-heavy LocalRW shape (rf and revisit-scan pruning), the
// single-writer CoRR shape (co-placement pruning), and a few standard
// shapes where pruning must fire rarely or not at all but equivalence
// must still hold.
func TestStaticPruningFamilies(t *testing.T) {
	cases := []*prog.Program{
		gen.LocalRW(2, 2),
		gen.LocalRW(3, 1),
		gen.CoRRN(2),
		gen.SBN(3),
		gen.MPN(2),
		gen.IncN(2, 2),
		gen.IndexerN(2),
	}
	for _, p := range cases {
		for _, model := range []string{"sc", "tso", "imm"} {
			assertPruneEquivalent(t, p.Name, p, model)
		}
	}
}

// TestStaticPruningFires pins down that the pruning hooks actually
// trigger — and pay — on the shapes built for them. Equivalence alone
// would also pass if pruning never fired.
func TestStaticPruningFires(t *testing.T) {
	t.Run("LocalRW", func(t *testing.T) {
		base, pruned := assertPruneEquivalent(t, "LocalRW(3,2)", gen.LocalRW(3, 2), "imm")
		if pruned.Stats.StaticPrunedScans == 0 {
			t.Error("LocalRW: no revisit scans pruned on thread-local locations")
		}
		if pruned.Stats.StaticPrunedCo == 0 {
			t.Error("LocalRW: no co placements pruned on single-writer locations")
		}
		if pruned.Stats.ConsistencyChecks >= base.Stats.ConsistencyChecks {
			t.Errorf("LocalRW: pruning did not reduce consistency checks (%d vs %d)",
				pruned.Stats.ConsistencyChecks, base.Stats.ConsistencyChecks)
		}
	})
	t.Run("CoRR", func(t *testing.T) {
		_, pruned := assertPruneEquivalent(t, "CoRR(3)", gen.CoRRN(3), "imm")
		if pruned.Stats.StaticPrunedCo == 0 {
			t.Error("CoRR: no co placements pruned despite the single writer")
		}
	})
	t.Run("SB-no-pruning", func(t *testing.T) {
		// Fully shared locations: nothing is provably prunable, and the
		// counters must say so (no silent over-pruning).
		_, pruned := assertPruneEquivalent(t, "SB(2)", gen.SBN(2), "tso")
		sum := pruned.Stats.StaticPrunedRf + pruned.Stats.StaticPrunedCo + pruned.Stats.StaticPrunedScans
		if sum != 0 {
			t.Errorf("SB: %d prunes fired on a program with no prunable locations", sum)
		}
	})
}

// TestLocalRWThreadLocalRf checks the rf fast-path fires when a
// thread-local location has more than one write in a graph at read time.
func TestLocalRWThreadLocalRf(t *testing.T) {
	// Two scratch rounds ⇒ at the second scratch load the location holds
	// init + two writes, so the rf candidate list is actually trimmed.
	_, pruned := assertPruneEquivalent(t, "LocalRW(2,3)", gen.LocalRW(2, 3), "tso")
	if pruned.Stats.StaticPrunedRf == 0 {
		t.Error("LocalRW(2,3): rf fast-path never fired on thread-local loads")
	}
}

// TestCheckDepsStandalone runs the sanitizer without pruning (the two
// options are independent) across models with real dependency tracking.
func TestCheckDepsStandalone(t *testing.T) {
	for _, tc := range litmus.Corpus() {
		res := explore(t, tc.P, "imm", Options{CheckDeps: true})
		if res.DepViolations != 0 {
			t.Errorf("%s: %d dep violations:\n%s", tc.Name, res.DepViolations,
				strings.Join(res.DepViolationDetails, "\n"))
		}
	}
}

// TestStaticPruningWithReductions checks pruning composes with the other
// exploration options (symmetry reduction, parallel workers, memoization
// of estimates is out of scope here).
func TestStaticPruningWithReductions(t *testing.T) {
	p := gen.LocalRW(3, 1)
	base := explore(t, p, "imm", Options{Symmetry: true})
	pruned := explore(t, p, "imm", Options{Symmetry: true, StaticAnalysis: true, CheckDeps: true})
	if base.Executions != pruned.Executions || base.ExistsCount != pruned.ExistsCount {
		t.Errorf("symmetry+pruning: %d/%d executions, exists %d/%d",
			pruned.Executions, base.Executions, pruned.ExistsCount, base.ExistsCount)
	}
	if pruned.DepViolations != 0 {
		t.Errorf("symmetry+pruning: %d dep violations", pruned.DepViolations)
	}

	wbase := explore(t, p, "imm", Options{Workers: 4})
	wpruned := explore(t, p, "imm", Options{Workers: 4, StaticAnalysis: true, CheckDeps: true})
	if wbase.Executions != wpruned.Executions {
		t.Errorf("workers+pruning: %d executions, want %d", wpruned.Executions, wbase.Executions)
	}
	if wpruned.DepViolations != 0 {
		t.Errorf("workers+pruning: %d dep violations", wpruned.DepViolations)
	}
}

// TestEstimateWithStaticAnalysis checks the probe-based estimator shares
// the pruned branching structure: on a thread-local-heavy program the
// estimator must remain unbiased for the pruned tree (which has the same
// leaf count as the unpruned one).
func TestEstimateWithStaticAnalysis(t *testing.T) {
	p := gen.LocalRW(2, 2)
	m, err := memmodel.ByName("sc")
	if err != nil {
		t.Fatal(err)
	}
	exact := explore(t, p, "sc", Options{})
	est, err := Estimate(p, Options{Model: m, StaticAnalysis: true}, 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := float64(exact.Executions)*0.5, float64(exact.Executions)*2.0
	if est.Mean < lo || est.Mean > hi {
		t.Errorf("estimate %s far from exact %d", est, exact.Executions)
	}
}
