package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// estimateVsExact runs the estimator and the exact exploration and
// returns (estimate, exact result).
func estimateVsExact(t *testing.T, p *prog.Program, model string, samples int) (*EstimateResult, *Result) {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimate(p, Options{Model: m}, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Explore(p, Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	return est, exact
}

// TestEstimateDeterministic: same seed → same estimate; different seed →
// (almost surely) a different one on a branchy program.
func TestEstimateDeterministic(t *testing.T) {
	m, _ := memmodel.ByName("tso")
	p := gen.SBN(4)
	a, err := Estimate(p, Options{Model: m}, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Estimate(p, Options{Model: m}, 16, 7)
	if a.Mean != b.Mean || a.CompletedProbes != b.CompletedProbes {
		t.Errorf("same seed must reproduce: %v vs %v", a, b)
	}
}

// TestEstimateExactOnTreeShapedSpaces: when the memoized search never
// collapses states (MemoHits = 0), the probe tree IS the search tree and
// the estimator is unbiased for Executions. With enough samples on small
// programs it should land within a few standard errors.
func TestEstimateExactOnTreeShapedSpaces(t *testing.T) {
	cases := []struct {
		p     *prog.Program
		model string
	}{
		{gen.CoRRN(2), "sc"},
		{gen.MPN(2), "sc"},
		{mustCorpus(t, "CoRR").P, "tso"},
	}
	for _, tc := range cases {
		est, exact := estimateVsExact(t, tc.p, tc.model, 4000)
		if exact.MemoHits != 0 {
			t.Fatalf("%s/%s: test premise broken: MemoHits=%d (pick a tree-shaped program)",
				tc.p.Name, tc.model, exact.MemoHits)
		}
		want := float64(exact.Executions)
		tol := 4*est.StdErr + 0.05*want
		if math.Abs(est.Mean-want) > tol {
			t.Errorf("%s/%s: estimate %v vs exact %d (tolerance %.2f)",
				tc.p.Name, tc.model, est, exact.Executions, tol)
		}
	}
}

// TestEstimateUpperBiasedWithMemoHits: on revisit-heavy spaces the probe
// tree has more paths than the memoized search has states, so the
// estimate must not land significantly *below* the truth.
func TestEstimateUpperBiasedWithMemoHits(t *testing.T) {
	est, exact := estimateVsExact(t, gen.SBN(3), "tso", 4000)
	want := float64(exact.Executions)
	if est.Mean < want-4*est.StdErr-0.05*want {
		t.Errorf("estimate %v significantly below exact %d — the estimator lost paths", est, exact.Executions)
	}
}

// TestEstimateProbesDieInBlockedRuns: probes reaching blocked leaves
// contribute zero weight but terminate cleanly.
func TestEstimateProbesDieInBlockedRuns(t *testing.T) {
	m, _ := memmodel.ByName("sc")
	est, err := Estimate(gen.ABBADeadlock(), Options{Model: m}, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if est.CompletedProbes == est.Samples {
		t.Error("ABBA has blocked executions; some probes should die")
	}
	if est.CompletedProbes == 0 {
		t.Error("ABBA has complete executions; some probes should finish")
	}
}

func mustCorpus(t *testing.T, name string) litmus.Test {
	t.Helper()
	tc, ok := litmus.ByName(name)
	if !ok {
		t.Fatalf("missing corpus test %s", name)
	}
	return tc
}

// TestEstimateAccurateOnRMWChains: counter-style programs are tree-shaped
// spaces. Chain steals build every coherence permutation of an
// atomic-update chain forward and update→update revisits are never tried,
// so no state is reached twice and the probe tree is the search tree.
func TestEstimateAccurateOnRMWChains(t *testing.T) {
	est, exact := estimateVsExact(t, gen.IncN(3, 2), "tso", 1500)
	if exact.MemoHits != 0 {
		t.Errorf("inc(3,2) must not collapse states: MemoHits=%d", exact.MemoHits)
	}
	if d := math.Abs(est.Mean - float64(exact.Executions)); d > 4*est.StdErr {
		t.Errorf("estimate %v vs exact %d: off by %.1f, more than 4 standard errors",
			est, exact.Executions, d)
	}
}

// TestEstimateInflatesWhereMemoCollapses pins the documented failure
// mode: where revisits do collapse states (spinlock acquire loops), the
// unmemoized probe tree has many more paths than executions, and the
// spread is large — the "reduce before exploring" signature.
func TestEstimateInflatesWhereMemoCollapses(t *testing.T) {
	est, exact := estimateVsExact(t, gen.SpinlockN(3, eg.FenceLW), "imm", 1500)
	if exact.MemoHits == 0 {
		t.Fatal("spinlock(3)+lw must exercise the memo")
	}
	if est.Mean < 5*float64(exact.Executions) {
		t.Errorf("expected heavy over-count (documented), got est %.1f vs exact %d",
			est.Mean, exact.Executions)
	}
	if est.StdErr < est.Mean/100 {
		t.Errorf("expected a large spread flagging unreliability: mean=%.1f stderr=%.1f",
			est.Mean, est.StdErr)
	}
}

// TestEstimateCancelledBeforeFirstProbe is the regression test for the
// zero-probe interruption path: a context cancelled before any probe runs
// must yield a zero-valued result with only Interrupted set — in
// particular no NaN or Inf in any float field (a 0/0 there used to be one
// encoder panic away from a truncated HTTP body).
func TestEstimateCancelledBeforeFirstProbe(t *testing.T) {
	m, _ := memmodel.ByName("sc")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Estimate(gen.SBN(4), Options{Model: m, Context: ctx}, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("pre-cancelled estimate must be marked Interrupted")
	}
	want := EstimateResult{Interrupted: true}
	if *res != want {
		t.Errorf("result not zero-valued: %+v", res)
	}
	rv := reflect.ValueOf(*res)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Float64 {
			continue
		}
		v := f.Float()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("field %s is non-finite: %v", rv.Type().Field(i).Name, v)
		}
	}
}

// TestEstimateFieldsAlwaysFinite sweeps a few programs (including one
// cancelled mid-flight) and asserts every float field of every result is
// finite: the estimator's contract for JSON encoders downstream.
func TestEstimateFieldsAlwaysFinite(t *testing.T) {
	m, _ := memmodel.ByName("tso")
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	results := []*EstimateResult{}
	for _, opts := range []Options{
		{Model: m},
		{Model: m, Context: ctx},
	} {
		res, err := Estimate(gen.IncN(3, 2), opts, 200, 3)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i, res := range results {
		if math.IsNaN(res.Mean) || math.IsInf(res.Mean, 0) {
			t.Errorf("result %d: Mean non-finite: %v", i, res.Mean)
		}
		if math.IsNaN(res.StdErr) || math.IsInf(res.StdErr, 0) {
			t.Errorf("result %d: StdErr non-finite: %v", i, res.StdErr)
		}
	}
}
