package core

import (
	"sort"
	"testing"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// exploreBoth runs p sequentially and with 8 workers and returns both
// results, with keys collected and checked distinct.
func exploreBoth(t *testing.T, p *prog.Program, model memmodel.Model) (seq, par *Result) {
	t.Helper()
	var err error
	seq, err = Explore(p, Options{Model: model, CollectKeys: true})
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	par, err = Explore(p, Options{Model: model, CollectKeys: true, Workers: 8})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	assertDistinctKeys(t, p.Name+" sequential", seq)
	assertDistinctKeys(t, p.Name+" parallel", par)
	return seq, par
}

// sameKeySet compares the two key multisets modulo order.
func sameKeySet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestParallelMatchesSequentialCorpus checks that parallel exploration
// visits exactly the sequential execution set — same executions, same
// blocked count, distinct keys — on every litmus test under every model.
func TestParallelMatchesSequentialCorpus(t *testing.T) {
	for _, name := range memmodel.Names() {
		model, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, lt := range litmus.Corpus() {
			seq, par := exploreBoth(t, lt.P, model)
			if par.Executions != seq.Executions || par.Blocked != seq.Blocked ||
				par.ExistsCount != seq.ExistsCount {
				t.Errorf("%s/%s: parallel (exec=%d blocked=%d exists=%d) != sequential (exec=%d blocked=%d exists=%d)",
					name, lt.Name, par.Executions, par.Blocked, par.ExistsCount,
					seq.Executions, seq.Blocked, seq.ExistsCount)
			}
			if !sameKeySet(seq.Keys, par.Keys) {
				t.Errorf("%s/%s: parallel key set differs from sequential", name, lt.Name)
			}
		}
	}
}

// TestParallelMatchesSequentialGen repeats the comparison on the larger
// generated families, where forking actually spreads work.
func TestParallelMatchesSequentialGen(t *testing.T) {
	progs := []*prog.Program{
		gen.SBN(4), gen.LBN(3), gen.MPN(3), gen.IncN(2, 2),
		gen.CASContendN(3), gen.Peterson(eg.FenceNone), gen.TreiberPushPop(eg.FenceNone),
	}
	for _, name := range []string{"sc", "tso", "arm", "relaxed"} {
		model, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range progs {
			seq, par := exploreBoth(t, p, model)
			if !sameKeySet(seq.Keys, par.Keys) {
				t.Errorf("%s/%s: parallel found %d executions, sequential %d",
					name, p.Name, par.Executions, seq.Executions)
			}
		}
	}
}

// TestParallelMaxExecutions checks that the execution cap is exact even
// with concurrent completions racing to it.
func TestParallelMaxExecutions(t *testing.T) {
	model, _ := memmodel.ByName("relaxed")
	res, err := Explore(gen.SBN(5), Options{Model: model, MaxExecutions: 7, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("cap below the execution count must set Truncated")
	}
	if res.Executions != 7 {
		t.Errorf("Executions = %d, want exactly 7 (cap must not overshoot)", res.Executions)
	}
}

// TestParallelCallbackSerialized checks the documented guarantee that
// OnExecution callbacks never run concurrently: an unsynchronized counter
// mutated in the callback must end up exact (and under `go test -race`
// any overlap would be flagged as a data race).
func TestParallelCallbackSerialized(t *testing.T) {
	model, _ := memmodel.ByName("tso")
	calls := 0
	res, err := Explore(gen.SBN(4), Options{
		Model:       model,
		Workers:     8,
		OnExecution: func(g *eg.Graph, fs prog.FinalState) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Executions {
		t.Errorf("callback ran %d times for %d executions", calls, res.Executions)
	}
}
