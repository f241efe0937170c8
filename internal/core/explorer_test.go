package core

import (
	"testing"

	"hmc/internal/eg"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// explore runs p under the named model, or under opts.Model when preset,
// collecting keys and failing the test if any execution was recorded twice.
func explore(t *testing.T, p *prog.Program, model string, opts Options) *Result {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Model == nil {
		opts.Model = m
	}
	opts.CollectKeys = true
	res, err := Explore(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertDistinctKeys(t, p.Name, res)
	return res
}

// assertDistinctKeys fails the test unless res (a CollectKeys run) holds
// exactly Executions distinct execution keys.
func assertDistinctKeys(t testing.TB, label string, res *Result) {
	t.Helper()
	if err := res.CheckDistinctKeys(); err != nil {
		t.Errorf("%s: optimality violated: %v", label, err)
	}
}

// TestCorpusVerdictsAndCounts is the end-to-end correctness test: for every
// litmus test and every model, the explorer must (a) observe the weak
// outcome iff the model allows it, (b) match the hand-computed execution
// count where present, (c) never explore an execution twice (optimality,
// checked by explore), and (d) never leave a read without a consistent rf
// option (extensibility).
func TestCorpusVerdictsAndCounts(t *testing.T) {
	for _, tc := range litmus.Corpus() {
		for model, allowed := range tc.Allowed {
			res := explore(t, tc.P, model, Options{})
			if got := res.ExistsCount > 0; got != allowed {
				t.Errorf("%s under %s: weak outcome observed=%v (%d/%d), want %v",
					tc.Name, model, got, res.ExistsCount, res.Executions, allowed)
			}
			if want, ok := tc.Executions[model]; ok && res.Executions != want {
				t.Errorf("%s under %s: %d executions, want %d",
					tc.Name, model, res.Executions, want)
			}
			if res.StuckReads != 0 {
				t.Errorf("%s under %s: %d stuck reads (extensibility violated)",
					tc.Name, model, res.StuckReads)
			}
			if len(res.Errors) != 0 {
				t.Errorf("%s under %s: unexpected errors: %v", tc.Name, model, res.Errors)
			}
		}
	}
}

// TestRevisitStatsOnLB checks the paper's central mechanism: the (1,1)
// outcome of LB under IMM has a po∪rf cycle and is reachable only through
// a backward revisit that keeps a po-later independent write.
func TestRevisitStatsOnLB(t *testing.T) {
	p, _ := litmus.ByName("LB")
	res := explore(t, p.P, "imm", Options{})
	if res.RevisitsTaken == 0 {
		t.Fatal("LB under IMM must take at least one backward revisit")
	}
	if res.Executions != 4 {
		t.Fatalf("LB under IMM: %d executions, want 4", res.Executions)
	}
}

func TestPorfAblationMissesLB(t *testing.T) {
	p, _ := litmus.ByName("LB")
	full := explore(t, p.P, "imm", Options{})
	abl := explore(t, p.P, "imm", Options{PorfOnlyRevisits: true})
	if full.Executions != 4 {
		t.Fatalf("full exploration: %d executions, want 4", full.Executions)
	}
	if abl.Executions >= full.Executions {
		t.Fatalf("porf-only ablation found %d executions, expected fewer than %d",
			abl.Executions, full.Executions)
	}
	if abl.ExistsCount != 0 {
		t.Fatal("porf-only ablation must miss the load-buffering outcome")
	}
	if abl.RevisitsPorfSkip == 0 {
		t.Fatal("ablation should have skipped at least one revisit")
	}
}

func TestPorfAblationMatchesOnSC(t *testing.T) {
	// Under porf-acyclic models the ablation loses nothing.
	for _, name := range []string{"SB", "MP", "LB", "IRIW"} {
		tc, ok := litmus.ByName(name)
		if !ok {
			t.Fatalf("missing corpus test %s", name)
		}
		for _, model := range []string{"sc", "ra"} {
			full := explore(t, tc.P, model, Options{})
			abl := explore(t, tc.P, model, Options{PorfOnlyRevisits: true})
			if full.Executions != abl.Executions {
				t.Errorf("%s under %s: ablation %d != full %d executions",
					name, model, abl.Executions, full.Executions)
			}
		}
	}
}

func TestAssertionFailureReported(t *testing.T) {
	// MP with an assertion that the weak outcome never happens: under IMM
	// it does, so an error must be reported with a witness.
	b := prog.NewBuilder("mp-assert")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	t0.Store(x, prog.Const(1))
	t0.Store(y, prog.Const(1))
	t1 := b.Thread()
	ry := t1.Load(y)
	rx := t1.Load(x)
	t1.Assert(prog.Or(prog.Eq(prog.R(ry), prog.Const(0)), prog.Ne(prog.R(rx), prog.Const(0))),
		"flag set implies data visible")
	p := b.MustBuild()

	res := explore(t, p, "imm", Options{})
	if len(res.Errors) == 0 {
		t.Fatal("expected an assertion failure under IMM")
	}
	if res.Errors[0].Graph == nil || res.Errors[0].Graph.NumEvents() == 0 {
		t.Fatal("error report must carry a witness graph")
	}
	resSC := explore(t, p, "sc", Options{})
	if len(resSC.Errors) != 0 {
		t.Fatalf("assertion must hold under SC, got %v", resSC.Errors)
	}
}

func TestStopOnError(t *testing.T) {
	b := prog.NewBuilder("always-fails")
	x := b.Loc("x")
	t0 := b.Thread()
	r := t0.Load(x)
	t0.Assert(prog.Ne(prog.R(r), prog.R(r)), "always false")
	t1 := b.Thread()
	t1.Store(x, prog.Const(1))
	p := b.MustBuild()

	res := explore(t, p, "sc", Options{StopOnError: true})
	if len(res.Errors) != 1 {
		t.Fatalf("StopOnError: got %d errors, want exactly 1", len(res.Errors))
	}
}

func TestBlockedExecutionsCounted(t *testing.T) {
	// Reader insists (assume) on seeing the flag; with one writer some
	// executions block.
	b := prog.NewBuilder("assume-flag")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.Store(x, prog.Const(1))
	t1 := b.Thread()
	r := t1.Load(x)
	t1.Assume(prog.Eq(prog.R(r), prog.Const(1)))
	p := b.MustBuild()

	res := explore(t, p, "sc", Options{})
	if res.Executions != 1 {
		t.Fatalf("executions = %d, want 1 (only r=1 passes the assume)", res.Executions)
	}
	if res.Blocked == 0 {
		t.Fatal("the r=0 branch must be counted as blocked")
	}
}

func TestMaxExecutionsTruncates(t *testing.T) {
	p, _ := litmus.ByName("IRIW")
	res := explore(t, p.P, "imm", Options{MaxExecutions: 5})
	if !res.Truncated || res.Executions != 5 {
		t.Fatalf("truncation failed: truncated=%v executions=%d", res.Truncated, res.Executions)
	}
}

func TestOnExecutionCallback(t *testing.T) {
	p, _ := litmus.ByName("SB")
	var seen int
	res := explore(t, p.P, "tso", Options{
		OnExecution: func(g *eg.Graph, fs prog.FinalState) {
			seen++
			if err := g.CheckWellFormed(); err != nil {
				t.Errorf("callback graph ill-formed: %v", err)
			}
			if len(fs.Mem) != 2 {
				t.Errorf("final state has %d locations", len(fs.Mem))
			}
		},
	})
	if seen != res.Executions {
		t.Fatalf("callback fired %d times for %d executions", seen, res.Executions)
	}
}

// TestCollectKeysDistinct: explore asserts the keys are distinct; this
// pins that a CollectKeys run collects one key per execution.
func TestCollectKeysDistinct(t *testing.T) {
	p, _ := litmus.ByName("IRIW")
	res := explore(t, p.P, "relaxed", Options{CollectKeys: true})
	if res.Executions == 0 || len(res.Keys) != res.Executions {
		t.Fatalf("%d keys for %d executions", len(res.Keys), res.Executions)
	}
}

// TestCheckDistinctKeysFires shows the optimality check can fail: a
// repeated key, or a key count that disagrees with Executions, is
// reported.
func TestCheckDistinctKeysFires(t *testing.T) {
	if err := (&Result{Stats: Stats{Executions: 2}, Keys: []string{"a", "b"}}).CheckDistinctKeys(); err != nil {
		t.Fatalf("distinct keys rejected: %v", err)
	}
	for _, r := range []*Result{
		{Stats: Stats{Executions: 2}, Keys: []string{"a", "a"}},
		{Stats: Stats{Executions: 3}, Keys: []string{"a", "b"}},
	} {
		if err := r.CheckDistinctKeys(); err == nil {
			t.Errorf("keys %q for %d executions accepted", r.Keys, r.Executions)
		}
	}
}

func TestExploreRequiresModel(t *testing.T) {
	p, _ := litmus.ByName("SB")
	if _, err := Explore(p.P, Options{}); err == nil {
		t.Fatal("Explore without a model must fail")
	}
}

func TestRMWChainExecutions(t *testing.T) {
	// Three atomic increments: executions = 3! orderings of the updates.
	res := explore(t, litmus.Inc(3), "imm", Options{})
	if res.Executions != 6 {
		t.Fatalf("inc(3) executions = %d, want 6", res.Executions)
	}
	if res.ExistsCount != 0 {
		t.Fatal("atomic increments must never lose updates")
	}
}

func TestCASSpinloopBounded(t *testing.T) {
	// A CAS retry loop: with assume-style blocking the failing branch
	// blocks rather than diverging.
	b := prog.NewBuilder("cas-once")
	x := b.Loc("x")
	for i := 0; i < 2; i++ {
		t0 := b.Thread()
		_, s := t0.CAS(x, prog.Const(0), prog.Const(int64(i+1)))
		_ = s
	}
	p := b.MustBuild()
	res := explore(t, p, "tso", Options{})
	// Each thread's CAS either wins (update) or fails (read): the loser
	// reads the winner's value or init. Hand count: 4 executions
	// (winner∈{t0,t1} × loser reads winner or init... loser reading init
	// would also succeed, so exactly: both read init is atomicity-
	// violating; t0 wins & t1 reads t0 (fail); t1 wins & t0 reads t1;
	// plus interleavings where the loser's CAS reads init? that would
	// succeed too — forbidden. So 2 executions.)
	if res.Executions != 2 {
		t.Fatalf("cas-once executions = %d, want 2", res.Executions)
	}
}

func TestRobustness(t *testing.T) {
	imm, _ := memmodel.ByName("imm")
	tso, _ := memmodel.ByName("tso")

	// SB exhibits the non-SC (0,0) execution under TSO: not robust.
	sb, _ := litmus.ByName("SB")
	rep, err := CheckRobustness(sb.P, tso)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Robust || rep.NonSC != 1 || rep.Witness == nil {
		t.Fatalf("SB/tso robustness = %+v, want 1 non-SC execution with witness", rep)
	}

	// Fully fenced SB is robust everywhere.
	sbff, _ := litmus.ByName("SB+ffs")
	rep, err = CheckRobustness(sbff.P, imm)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Robust || rep.NonSC != 0 || rep.Witness != nil {
		t.Fatalf("SB+ffs/imm robustness = %+v, want robust", rep)
	}

	// Atomic counters are robust: RMW chains serialize.
	inc, _ := litmus.ByName("inc(2)")
	rep, err = CheckRobustness(inc.P, imm)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Robust {
		t.Fatal("inc(2) must be robust against imm")
	}

	// The robust verdict must agree with execution counting: executions
	// under the weak model = SC executions + non-SC ones.
	scRes := explore(t, sb.P, "sc", Options{})
	tsoRes := explore(t, sb.P, "tso", Options{})
	rep, _ = CheckRobustness(sb.P, tso)
	if rep.Executions != tsoRes.Executions || rep.Executions-rep.NonSC != scRes.Executions {
		t.Fatalf("robustness accounting wrong: %+v vs sc=%d tso=%d",
			rep, scRes.Executions, tsoRes.Executions)
	}
}

func TestCheckRaces(t *testing.T) {
	// Plain MP: flag and data both plain → two races (flag pair, data pair).
	mp, _ := litmus.ByName("MP")
	rep, err := CheckRaces(mp.P)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) == 0 {
		t.Fatal("plain MP must race")
	}
	for _, r := range rep.Races {
		if r.Witness == nil {
			t.Error("race without witness")
		}
	}

	// rel/acq MP: the flag accesses are atomic and synchronise, so the
	// plain data accesses are ordered — race-free... only in executions
	// where the acquire actually reads the release. The execution where
	// the reader misses the flag leaves the data write concurrent with
	// nothing (the reader's data load reads init but is unordered with
	// the writer's data store): still racy.
	annotated, _ := litmus.ByName("MP+rel+acq")
	rep, err = CheckRaces(annotated.P)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) == 0 {
		t.Fatal("MP+rel+acq still races when the flag is not observed")
	}
	for _, r := range rep.Races {
		if r.Loc != 0 { // only the data location may race; the flag is atomic
			t.Errorf("unexpected race on atomic location: %v", r)
		}
	}

	// Fully synchronised handoff: reader awaits the flag, so every
	// surviving execution orders the data accesses — race-free.
	b := prog.NewBuilder("handoff")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	t0.Store(x, prog.Const(1))
	t0.StoreM(y, prog.Const(1), eg.ModeRel)
	t1 := b.Thread()
	r := t1.LoadM(y, eg.ModeAcq)
	t1.Assume(prog.Eq(prog.R(r), prog.Const(1)))
	t1.Load(x)
	p := b.MustBuild()
	rep, err = CheckRaces(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 0 {
		t.Fatalf("synchronised handoff must be race-free, got %v", rep.Races)
	}

	// Atomics never race: the all-atomic SB is clean.
	sbsc, _ := litmus.ByName("SB+scs")
	rep, err = CheckRaces(sbsc.P)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Races) != 0 {
		t.Fatalf("all-atomic SB must be race-free, got %v", rep.Races)
	}
}
