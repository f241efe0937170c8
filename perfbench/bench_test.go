package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"hmc/internal/axenum"
	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/memmodel"
	"hmc/internal/service"
)

func recordedAnswers(t *testing.T) map[string]Answer {
	t.Helper()
	var m map[string]Answer
	if err := json.Unmarshal(answersJSON, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// A deliberately wrong expected answer must count as a failed job.
func TestWrongAnswerRaisesFailRatio(t *testing.T) {
	jobs, err := exploreJobs("explore-consistency", recordedAnswers(t))
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[3:4] // LB(10)/arm: small
	var ok tally
	runExplorePass(jobs, rand.New(rand.NewSource(1)), &ok)
	if ok.attempted != 1 || ok.failed != 0 {
		t.Fatalf("correct answer: %d of %d failed", ok.failed, ok.attempted)
	}
	for _, wrong := range []Answer{
		{Allowed: true, Executions: jobs[0].want.Executions + 1, Source: "wrong count"},
		{Allowed: false, Executions: jobs[0].want.Executions, Source: "wrong verdict"},
	} {
		jobs[0].want = wrong
		var bad tally
		runExplorePass(jobs, rand.New(rand.NewSource(1)), &bad)
		if bad.failed != 1 {
			t.Errorf("%s: %d of %d failed, want 1", wrong.Source, bad.failed, bad.attempted)
		}
	}
}

// Quarantined, failed and interrupted service jobs are failures even
// without a wrong answer.
func TestServiceFailuresCount(t *testing.T) {
	want := Answer{Allowed: true, Executions: 4, Source: "test"}
	res := &core.Result{Stats: core.Stats{Executions: 4, ExistsCount: 1}}
	it := trafficItem{p: gen.SBN(2), model: "tso", want: want}
	cases := map[string]svcJob{
		"quarantined": {item: it, view: service.JobView{State: service.StateQuarantined, Result: res}},
		"failed":      {item: it, view: service.JobView{State: service.StateFailed}},
		"interrupted": {item: it, view: service.JobView{State: service.StateDone, Result: &core.Result{Stats: res.Stats, Interrupted: true}}},
		"stuck":       {item: it, view: service.JobView{State: service.StateDone, Result: &core.Result{Stats: core.Stats{Executions: 4, ExistsCount: 1, StuckReads: 1}}}},
	}
	for name, j := range cases {
		if checkJob(j) == nil {
			t.Errorf("%s job passed the check", name)
		}
	}
	if err := checkJob(svcJob{item: it, view: service.JobView{State: service.StateDone, Result: res}}); err != nil {
		t.Errorf("good job failed: %v", err)
	}
}

// The metric names and units the benchmark prints are the ones
// BENCHMARK.json lists, and every workload it lists is one the benchmark
// runs.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark has %d metrics, BENCHMARK.json %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark %s (%s), BENCHMARK.json %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	known := map[string]bool{}
	for _, w := range workloads {
		known[w] = true
	}
	for _, w := range spec.Workloads {
		if !known[w.Name] {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not run", w.Name)
		}
	}

	res, err := run("explore-consistency", 1, 1, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("short run: %d of %d jobs failed", res.Failed, res.Attempted)
	}
	for _, d := range endToEnd {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
			t.Errorf("printed %s = %+v", d.name, m)
		}
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
}

// The spinlock closed form agrees with the axiomatic enumerator where
// that finishes quickly.
func TestSpinlockClosedForm(t *testing.T) {
	m, err := memmodel.ByName("imm")
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 2; n++ {
		res, err := axenum.Explore(gen.SpinlockN(n, eg.FenceLW), axenum.Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		want := spinlockAnswer(n)
		if res.Consistent != want.Executions || (res.ExistsCount > 0) != want.Allowed {
			t.Errorf("spinlock(%d): axenum %d executions (exists %d), closed form %d", n, res.Consistent, res.ExistsCount, want.Executions)
		}
	}
}

// Every corpus pair has an answer, a block has the documented
// composition, and blockCycle consecutive blocks draw once from every
// cost stratum.
func TestTrafficBlocks(t *testing.T) {
	tr, err := newTraffic(7, recordedAnswers(t))
	if err != nil {
		t.Fatal(err)
	}
	stratum := map[string]int{}
	for i, s := range tr.strata {
		for _, it := range s {
			stratum[it.name()] = i
		}
	}
	drawn := map[int]int{}
	for b := 0; b < blockCycle; b++ {
		block := tr.nextBlock()
		repeats, random := 0, 0
		for _, it := range block {
			switch i, ok := stratum[it.name()]; {
			case it.repeat:
				repeats++
				if ok {
					t.Errorf("block %d repeats random pair %s", b, it.name())
				}
			case ok:
				random++
				drawn[i]++
			}
		}
		if random != blockRandom || len(block) != len(tr.corpus)+blockRandom+repeats {
			t.Errorf("block %d: %d items, %d random, %d repeats", b, len(block), random, repeats)
		}
		if share := float64(repeats) / float64(len(block)); share < 0.19 || share > 0.21 {
			t.Errorf("block %d: repeat share %.3f, want about %.2f", b, share, repeatShare)
		}
	}
	for i := range tr.strata {
		if drawn[i] != 1 {
			t.Errorf("stratum %d drawn %d times in a cycle, want 1", i, drawn[i])
		}
	}
}

// The timed model and the tracer are shared by the explorer's workers:
// under Workers: 2 every consistency check is still counted and recorded
// once (run with -race).
func TestTracedCallsTwoWorkers(t *testing.T) {
	m, err := memmodel.ByName("tso")
	if err != nil {
		t.Fatal(err)
	}
	job := exploreJob{p: gen.SBN(8), model: m, workers: 2, want: sbAnswer(8)}
	tr := newTracer()
	var tl tally
	var tot coreTotals
	tracedCalls(tr, 0, []exploreJob{job}, &tl, &tot)
	if tl.failed != 0 {
		t.Fatalf("%d of %d failed", tl.failed, tl.attempted)
	}
	if tot.calls != int64(tot.checks) {
		t.Errorf("timed model saw %d calls, explorer counted %d checks", tot.calls, tot.checks)
	}
	spans := 0
	for _, s := range tr.finish() {
		if s.Name == "memmodel.Consistent" {
			spans++
		}
	}
	if int64(spans) != tot.calls || tot.self <= 0 || tot.self > tot.wall {
		t.Errorf("%d memmodel spans for %d calls; self %v of wall %v", spans, tot.calls, tot.self, tot.wall)
	}
}
