package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/obs"
	"hmc/internal/prog"
)

// TestRMWChainsReachedForward pins the completeness argument behind the
// update→update revisit filter (revisitsFrom): on n threads each doing k
// fetch-adds, every one of the (nk)!/(k!)ⁿ interleavings of the update
// chain is built forward by chain steals. No backward revisit is tried,
// no state is reached twice, and the filter demonstrably fired.
func TestRMWChainsReachedForward(t *testing.T) {
	for _, c := range []struct{ n, k, want int }{
		{2, 2, 6},    // 4!/(2!·2!)
		{3, 2, 90},   // 6!/(2!)³
		{3, 3, 1680}, // 9!/(3!)³
	} {
		p := gen.IncN(c.n, c.k)
		for _, model := range memmodel.Names() {
			res := explore(t, p, model, Options{})
			if res.Executions != c.want {
				t.Errorf("%s/%s: %d executions, want %d", p.Name, model, res.Executions, c.want)
			}
			if res.RevisitsTried != 0 || res.MemoHits != 0 {
				t.Errorf("%s/%s: RevisitsTried=%d MemoHits=%d, want 0 and 0",
					p.Name, model, res.RevisitsTried, res.MemoHits)
			}
			if res.RevisitsChainSkipped == 0 {
				t.Errorf("%s/%s: the chain filter never fired", p.Name, model)
			}
			if res.StuckReads != 0 {
				t.Errorf("%s/%s: StuckReads=%d, want 0", p.Name, model, res.StuckReads)
			}
		}
	}
}

// TestRepairFailCausesSumToTotal: every failed revisit is counted under
// exactly one cause, over the corpus and the revisit-heavy families under
// every model.
func TestRepairFailCausesSumToTotal(t *testing.T) {
	progs := []*prog.Program{
		gen.SpinlockN(3, eg.FenceLW), gen.Peterson(eg.FenceLW),
		gen.TreiberPushPop(eg.FenceLW), gen.LBN(4), gen.CASContendN(3),
	}
	for _, tc := range litmus.Corpus() {
		progs = append(progs, tc.P)
	}
	failed := 0
	for _, p := range progs {
		for _, model := range memmodel.Names() {
			res := explore(t, p, model, Options{})
			sum := res.RevisitsRepairFailDiverged + res.RevisitsRepairFailInconsistent +
				res.RevisitsRepairFailDoomed + res.RevisitsRepairFailOOTA
			if sum != res.RevisitsRepairFail {
				t.Errorf("%s/%s: causes sum to %d, RevisitsRepairFail=%d",
					p.Name, model, sum, res.RevisitsRepairFail)
			}
			failed += res.RevisitsRepairFail
		}
	}
	if failed == 0 {
		t.Fatal("test premise broken: no revisit failed repair")
	}
}

// TestTraceNamesSkippedAndFailedRevisits: the JSONL trace carries a
// "chain" prune for every scan the filter cut, and a "revisit-failed"
// event with a cause for every failed revisit — matching the counters,
// which the final progress snapshot reports too (in the sink and in the
// trace), along with the repair replay counters.
func TestTraceNamesSkippedAndFailedRevisits(t *testing.T) {
	var buf bytes.Buffer
	var final obs.ProgressSnapshot
	res := explore(t, gen.SpinlockN(3, eg.FenceLW), "imm", Options{
		Trace:    obs.NewTracer(&buf),
		Progress: &ProgressOptions{Sink: func(s obs.ProgressSnapshot) { final = s }},
	})
	counters := func(s obs.ProgressSnapshot) [8]int {
		return [8]int{s.RevisitsChainSkipped, s.RevisitsRepairFail, s.RevisitsRepairFailDiverged,
			s.RevisitsRepairFailInconsistent, s.RevisitsRepairFailDoomed, s.RevisitsRepairFailOOTA,
			s.RepairReplays, s.RepairSkippedClean}
	}
	want := [8]int{res.RevisitsChainSkipped, res.RevisitsRepairFail, res.RevisitsRepairFailDiverged,
		res.RevisitsRepairFailInconsistent, res.RevisitsRepairFailDoomed, res.RevisitsRepairFailOOTA,
		res.RepairReplays, res.RepairSkippedClean}
	if got := counters(final); !final.Final || got != want {
		t.Errorf("final snapshot (final=%v) reports %v, result %v", final.Final, got, want)
	}
	if res.RepairReplays == 0 || res.RepairSkippedClean == 0 {
		t.Errorf("repair counters replays=%d skipped-clean=%d, want both > 0", res.RepairReplays, res.RepairSkippedClean)
	}
	var traced obs.ProgressSnapshot
	chain := 0
	causes := map[string]int{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var ev obs.TraceEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Kind == "snapshot" && ev.Snapshot != nil:
			traced = *ev.Snapshot
		case ev.Kind == "prune" && ev.Prune == "chain":
			chain += ev.Count
		case ev.Kind == "revisit-failed":
			causes[ev.Cause]++
		}
	}
	if got := counters(traced); !traced.Final || got != want {
		t.Errorf("last traced snapshot (final=%v) reports %v, result %v", traced.Final, got, want)
	}
	if chain == 0 || chain != res.RevisitsChainSkipped {
		t.Errorf("chain prunes traced %d, RevisitsChainSkipped=%d (want equal, > 0)", chain, res.RevisitsChainSkipped)
	}
	wantCauses := map[string]int{
		failDiverged:     res.RevisitsRepairFailDiverged,
		failInconsistent: res.RevisitsRepairFailInconsistent,
		failDoomed:       res.RevisitsRepairFailDoomed,
		failOOTA:         res.RevisitsRepairFailOOTA,
	}
	for cause, n := range wantCauses {
		if causes[cause] != n {
			t.Errorf("revisit-failed/%s traced %d times, counter %d", cause, causes[cause], n)
		}
	}
	if len(causes) > len(wantCauses) {
		t.Errorf("unknown causes traced: %v", causes)
	}
}
