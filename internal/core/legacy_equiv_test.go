package core

import (
	"reflect"
	"testing"

	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// TestLegacyModelCountPreserving is the central invariant of the
// incremental-checking rewrite: memmodel.Legacy(m) is the reference
// materialized-union predicate under m's name, and every observable of a
// run under it — each Stats counter, the execution key set, truncation
// status — must be byte-identical to the run under the pooled/incremental
// m. The two may differ only in wall-clock and allocation.
func TestLegacyModelCountPreserving(t *testing.T) {
	check := func(name string, p *prog.Program, model string) {
		t.Helper()
		fast := explore(t, p, model, Options{CollectKeys: true})
		legacy := explore(t, p, model, Options{CollectKeys: true, Model: legacyOf(t, model)})
		if !reflect.DeepEqual(fast.Stats, legacy.Stats) {
			t.Errorf("%s under %s: stats diverge\nfast:   %+v\nlegacy: %+v",
				name, model, fast.Stats, legacy.Stats)
		}
		if got, want := sortedKeys(fast), sortedKeys(legacy); !reflect.DeepEqual(got, want) {
			t.Errorf("%s under %s: execution key sets diverge (%d vs %d keys)",
				name, model, len(got), len(want))
		}
	}
	for _, tc := range litmus.Corpus() {
		for model := range tc.Allowed {
			check(tc.Name, tc.P, model)
		}
	}
	check("SB(6)", gen.SBN(6), "sc")
	check("SB(6)", gen.SBN(6), "tso")
	check("SB(6)", gen.SBN(6), "pso")
	check("inc(2,2)", gen.IncN(2, 2), "sc")
	check("indexer(2)", gen.IndexerN(2), "tso")
}

// TestLegacyModelCheckpointCompatible kills a run and resumes it with the
// model alternating between tso and memmodel.Legacy(tso) on every leg. The
// legacy model carries the same Name, which is all a checkpoint records,
// so the cross-path chain must be accepted and finish with the same totals
// as a straight run.
func TestLegacyModelCheckpointCompatible(t *testing.T) {
	p := gen.SBN(6)
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	models := [2]memmodel.Model{m, memmodel.Legacy(m)}
	straight := explore(t, p, "tso", Options{CollectKeys: true})

	var resume *Checkpoint
	for leg := 0; ; leg++ {
		if leg > 10000 {
			t.Fatal("cross-path resume chain did not terminate")
		}
		res, err := Explore(p, Options{
			Model:       models[leg%2],
			CollectKeys: true,
			FailAfter:   6,
			ResumeFrom:  resume,
		})
		if err != nil {
			t.Fatalf("leg %d (%T): %v", leg, models[leg%2], err)
		}
		if !res.Interrupted {
			if leg == 0 {
				t.Fatal("run finished before a single kill; raise the program size")
			}
			assertSameExploration(t, "cross-path resume", straight, res, true)
			return
		}
		if res.Checkpoint == nil {
			t.Fatal("interrupted result without checkpoint")
		}
		resume = encodeDecode(t, res.Checkpoint)
	}
}

// legacyOf returns the reference implementation of the named model.
func legacyOf(t *testing.T, model string) memmodel.Model {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	return memmodel.Legacy(m)
}
