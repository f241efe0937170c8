// Package crossval cross-validates the two independent checker
// implementations: the HMC-style execution-graph explorer (internal/core,
// axiomatic models) against the operational explicit-state machines
// (internal/operational). For SC, TSO and PSO both must observe exactly
// the same set of final states on every program — this is the strongest
// end-to-end evidence that the axiomatic models, the dependency-tracking
// interpreter, and the revisit machinery are correct.
package crossval

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/operational"
	"hmc/internal/prog"
)

// coreFinals runs the graph explorer and returns the sorted set of
// canonical final-state keys. It fails the test if the explorer recorded
// any execution twice.
func coreFinals(t *testing.T, p *prog.Program, model string) ([]string, *core.Result) {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	finals := map[string]bool{}
	res, err := core.Explore(p, core.Options{
		Model:       m,
		CollectKeys: true,
		OnExecution: func(g *eg.Graph, fs prog.FinalState) {
			if err := g.CheckWellFormed(); err != nil {
				t.Errorf("ill-formed execution graph: %v\n%v", err, g)
			}
			finals[operational.FinalKey(fs)] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckDistinctKeys(); err != nil {
		t.Errorf("%s under %s: %v", p.Name, model, err)
	}
	keys := make([]string, 0, len(finals))
	for k := range finals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, res
}

// machineFinals runs the memoized operational machine.
func machineFinals(t *testing.T, p *prog.Program, level operational.Level) []string {
	t.Helper()
	res, err := operational.Explore(p, operational.Options{Level: level, Memo: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.FinalKeys()
}

var levels = map[string]operational.Level{
	"sc":  operational.SC,
	"tso": operational.TSO,
	"pso": operational.PSO,
}

func compare(t *testing.T, name string, p *prog.Program) {
	t.Helper()
	for model, level := range levels {
		got, res := coreFinals(t, p, model)
		want := machineFinals(t, p, level)
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Errorf("%s under %s: final-state sets differ\ngraph explorer (%d): %v\nmachine        (%d): %v\nprogram:\n%v",
				name, model, len(got), got, len(want), want, p)
		}
		if res.StuckReads != 0 {
			t.Errorf("%s under %s: %d stuck reads", name, model, res.StuckReads)
		}
	}
}

// corpusTests exposes the litmus corpus to the reference tests.
func corpusTests() []litmus.Test { return litmus.Corpus() }

// corpusByName fetches one corpus program.
func corpusByName(name string) (*prog.Program, bool) {
	tc, ok := litmus.ByName(name)
	if !ok {
		return nil, false
	}
	return tc.P, true
}

func TestCorpusAgainstMachines(t *testing.T) {
	for _, tc := range litmus.Corpus() {
		compare(t, tc.Name, tc.P)
	}
}

// randomProgram delegates to the shared generator in internal/gen so the
// cross-validation suite and the static-analysis property tests exercise
// the exact same program distribution.
func randomProgram(seed int64) *prog.Program { return gen.Random(seed) }

func TestRandomProgramsAgainstMachines(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for seed := int64(0); seed < int64(n); seed++ {
		compare(t, fmt.Sprintf("rand-%d", seed), randomProgram(seed))
	}
}

// TestRandomProgramsOptimality checks duplicate-freedom (distinct
// execution keys, asserted by coreFinals) for the weaker models too (ra,
// relaxed, imm have no operational oracle, but optimality and
// extensibility must still hold).
func TestRandomProgramsOptimality(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < int64(n); seed++ {
		p := randomProgram(seed)
		for _, model := range []string{"arm", "ra", "rc11", "relaxed", "imm"} {
			_, res := coreFinals(t, p, model)
			if res.StuckReads != 0 {
				t.Errorf("%s under %s: %d stuck reads\n%v", p.Name, model, res.StuckReads, p)
			}
		}
	}
}

// TestModelNestingOnRandomPrograms checks that the per-model execution
// counts respect model strength: SC ⊆ TSO ⊆ PSO ⊆ Relaxed and SC ⊆ RA/IMM
// ⊆ Relaxed (as sets of executions, approximated by counts of final
// states, which are monotone under set inclusion).
func TestModelNestingOnRandomPrograms(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	chains := [][]string{
		{"sc", "tso", "pso", "arm", "imm", "relaxed"},
		{"sc", "ra", "relaxed"},
		{"sc", "rc11", "relaxed"},
	}
	for seed := int64(0); seed < int64(n); seed++ {
		p := randomProgram(seed)
		finals := map[string]map[string]bool{}
		for _, model := range memmodel.Names() {
			keys, _ := coreFinals(t, p, model)
			set := map[string]bool{}
			for _, k := range keys {
				set[k] = true
			}
			finals[model] = set
		}
		for _, chain := range chains {
			for i := 0; i+1 < len(chain); i++ {
				lo, hi := chain[i], chain[i+1]
				for k := range finals[lo] {
					if !finals[hi][k] {
						t.Errorf("%s: final state %q observable under %s but not under %s",
							p.Name, k, lo, hi)
					}
				}
			}
		}
	}
}
