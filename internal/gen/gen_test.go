package gen

import (
	"testing"

	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/memmodel"
	"hmc/internal/operational"
	"hmc/internal/prog"
)

func explore(t *testing.T, p *prog.Program, model string) *core.Result {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Explore(p, core.Options{Model: m, CollectKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckDistinctKeys(); err != nil {
		t.Fatalf("%s under %s: %v", p.Name, model, err)
	}
	return res
}

func TestSBNCounts(t *testing.T) {
	for n := 2; n <= 4; n++ {
		p := SBN(n)
		pow := 1 << n
		if got := explore(t, p, "sc").Executions; got != pow-1 {
			t.Errorf("SB(%d) under sc: %d executions, want %d", n, got, pow-1)
		}
		res := explore(t, p, "tso")
		if res.Executions != pow {
			t.Errorf("SB(%d) under tso: %d executions, want %d", n, res.Executions, pow)
		}
		if res.ExistsCount != 1 {
			t.Errorf("SB(%d) under tso: weak outcome count %d, want 1", n, res.ExistsCount)
		}
	}
}

func TestLBNCounts(t *testing.T) {
	for n := 2; n <= 4; n++ {
		p := LBN(n)
		pow := 1 << n
		if got := explore(t, p, "sc").Executions; got != pow-1 {
			t.Errorf("LB(%d) under sc: %d executions, want %d", n, got, pow-1)
		}
		res := explore(t, p, "imm")
		if res.Executions != pow {
			t.Errorf("LB(%d) under imm: %d executions, want %d", n, res.Executions, pow)
		}
		if res.ExistsCount != 1 {
			t.Errorf("LB(%d) under imm: weak outcome count %d, want 1", n, res.ExistsCount)
		}
		if got := explore(t, p, "tso").ExistsCount; got != 0 {
			t.Errorf("LB(%d) under tso: weak outcome observed", n)
		}
	}
}

func TestMPNVerdicts(t *testing.T) {
	for n := 1; n <= 3; n++ {
		p := MPN(n)
		if got := explore(t, p, "sc").ExistsCount; got != 0 {
			t.Errorf("MP(%d) weak outcome under sc", n)
		}
		if got := explore(t, p, "tso").ExistsCount; got != 0 {
			t.Errorf("MP(%d) weak outcome under tso", n)
		}
		if got := explore(t, p, "pso").ExistsCount; got == 0 {
			t.Errorf("MP(%d) weak outcome missing under pso", n)
		}
		if got := explore(t, p, "imm").ExistsCount; got == 0 {
			t.Errorf("MP(%d) weak outcome missing under imm", n)
		}
	}
}

func TestIRIWNVerdicts(t *testing.T) {
	p := IRIWN(1)
	if got := explore(t, p, "sc").Executions; got != 15 {
		t.Errorf("IRIW(1) under sc: %d executions, want 15", got)
	}
	if got := explore(t, p, "ra").Executions; got != 16 {
		t.Errorf("IRIW(1) under ra: %d executions, want 16", got)
	}
	if got := explore(t, p, "tso").ExistsCount; got != 0 {
		t.Error("IRIW(1) weak outcome under tso")
	}
	if got := explore(t, p, "imm").ExistsCount; got == 0 {
		t.Error("IRIW(1) weak outcome missing under imm")
	}
}

// binom computes C(n, k).
func binom(n, k int) int {
	r := 1
	for i := 0; i < k; i++ {
		r = r * (n - i) / (i + 1)
	}
	return r
}

func TestCoRRNCounts(t *testing.T) {
	// Consistent executions = monotone read sequences over n+1 values of
	// length n = C(2n, n); identical under every model (pure coherence).
	for n := 1; n <= 3; n++ {
		p := CoRRN(n)
		want := binom(2*n, n)
		for _, model := range []string{"sc", "imm", "relaxed"} {
			res := explore(t, p, model)
			if res.Executions != want {
				t.Errorf("CoRR(%d) under %s: %d executions, want %d", n, model, res.Executions, want)
			}
			if res.ExistsCount != 0 {
				t.Errorf("CoRR(%d) under %s: coherence violation observed", n, model)
			}
		}
	}
}

func TestTwoPlusTwoWN(t *testing.T) {
	p := TwoPlusTwoWN(2)
	if got := explore(t, p, "sc").ExistsCount; got != 0 {
		t.Error("2+2W(2) weak outcome under sc")
	}
	if got := explore(t, p, "pso").ExistsCount; got == 0 {
		t.Error("2+2W(2) weak outcome missing under pso")
	}
}

func TestIncNCounts(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{2, 1, 2}, {3, 1, 6}, {4, 1, 24}, {2, 2, 6}, {3, 2, 90},
	}
	for _, c := range cases {
		p := IncN(c.n, c.k)
		res := explore(t, p, "imm")
		if res.Executions != c.want {
			t.Errorf("inc(%d,%d): %d executions, want %d", c.n, c.k, res.Executions, c.want)
		}
		if res.ExistsCount != 0 {
			t.Errorf("inc(%d,%d): lost update observed", c.n, c.k)
		}
	}
}

func TestCASContendN(t *testing.T) {
	for n := 2; n <= 4; n++ {
		p := CASContendN(n)
		res := explore(t, p, "tso")
		if res.ExistsCount != 0 {
			t.Errorf("cas(%d): winner invariant violated", n)
		}
		if res.Executions != n {
			t.Errorf("cas(%d): %d executions, want %d (one per winner)", n, res.Executions, n)
		}
	}
}

func TestIndexerN(t *testing.T) {
	res := explore(t, IndexerN(2), "tso")
	if res.ExistsCount != 0 {
		t.Error("indexer(2): a thread failed both probes with no contention chain")
	}
	if res.Executions == 0 {
		t.Error("indexer(2): no executions")
	}
}

func TestSpinlockLeak(t *testing.T) {
	// The mutual-exclusion counter is safe under SC/TSO even without
	// fences (the exchange orders everything), but leaks under the
	// dependency-ordered hardware model unless fenced.
	plain := SpinlockN(2, eg.FenceNone)
	if got := explore(t, plain, "sc").ExistsCount; got != 0 {
		t.Error("spinlock(2) lost an update under sc")
	}
	if got := explore(t, plain, "tso").ExistsCount; got != 0 {
		t.Error("spinlock(2) lost an update under tso")
	}
	if got := explore(t, plain, "imm").ExistsCount; got == 0 {
		t.Error("spinlock(2) must leak under imm without fences")
	}
	fenced := SpinlockN(2, eg.FenceFull)
	if got := explore(t, fenced, "imm").ExistsCount; got != 0 {
		t.Error("spinlock(2)+full lost an update under imm")
	}
}

// TestFamiliesAgainstMachines cross-validates small instances of every
// family against the operational machines.
func TestFamiliesAgainstMachines(t *testing.T) {
	progs := []*prog.Program{
		SBN(3), LBN(3), MPN(2), IRIWN(1), CoRRN(2), TwoPlusTwoWN(2),
		IncN(2, 2), CASContendN(3), IndexerN(3), SpinlockN(2, eg.FenceNone),
	}
	levels := map[string]operational.Level{
		"sc": operational.SC, "tso": operational.TSO, "pso": operational.PSO,
	}
	for _, p := range progs {
		for model, level := range levels {
			m, _ := memmodel.ByName(model)
			finals := map[string]bool{}
			_, err := core.Explore(p, core.Options{Model: m,
				OnExecution: func(g *eg.Graph, fs prog.FinalState) {
					finals[operational.FinalKey(fs)] = true
				}})
			if err != nil {
				t.Fatal(err)
			}
			mres, err := operational.Explore(p, operational.Options{Level: level, Memo: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(finals) != len(mres.Finals) {
				t.Errorf("%s under %s: %d final states vs machine's %d",
					p.Name, model, len(finals), len(mres.Finals))
				continue
			}
			for k := range mres.Finals {
				if !finals[k] {
					t.Errorf("%s under %s: machine final %s not found by explorer", p.Name, model, k)
				}
			}
		}
	}
}

func TestPeterson(t *testing.T) {
	plain := Peterson(eg.FenceNone)
	// Correct under SC...
	if got := explore(t, plain, "sc").ExistsCount; got != 0 {
		t.Error("Peterson must be correct under SC")
	}
	// ...broken on x86-TSO without the store-load barrier (the textbook
	// example of why W→R reordering matters)...
	if got := explore(t, plain, "tso").ExistsCount; got == 0 {
		t.Error("Peterson without fences must be broken under TSO")
	}
	// ...and repaired by a full fence in the entry protocol.
	fenced := Peterson(eg.FenceFull)
	for _, model := range []string{"sc", "tso", "pso", "arm", "imm"} {
		if got := explore(t, fenced, model).ExistsCount; got != 0 {
			t.Errorf("Peterson+full must be correct under %s", model)
		}
	}
	// Blocked executions (awaits that never fire) must be reported.
	if got := explore(t, plain, "sc").Blocked; got == 0 {
		t.Error("Peterson's awaits must produce blocked executions")
	}
}

func TestAwaitEqBlocks(t *testing.T) {
	b := prog.NewBuilder("await")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.Store(x, prog.Const(1))
	t1 := b.Thread()
	t1.AwaitEq(x, prog.Const(1))
	p := b.MustBuild()
	res := explore(t, p, "sc")
	if res.Executions != 1 || res.Blocked == 0 {
		t.Fatalf("await: executions=%d blocked=%d, want 1 and >0", res.Executions, res.Blocked)
	}
}

func TestTreiberPublication(t *testing.T) {
	plain := TreiberPushPop(eg.FenceNone)
	for _, model := range []string{"sc", "tso"} {
		res := explore(t, plain, model)
		if len(res.Errors) != 0 {
			t.Errorf("treiber must be safe under %s: %v", model, res.Errors[0].Msg)
		}
		if res.ExistsCount == 0 {
			t.Errorf("pop must be able to succeed under %s", model)
		}
	}
	// The unpublished-node bug on dependency-ordered hardware.
	m, _ := memmodel.ByName("imm")
	res, err := core.Explore(plain, core.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) == 0 {
		t.Error("treiber without release must pop an unpublished node under imm")
	}
	// And the fix.
	fenced := TreiberPushPop(eg.FenceLW)
	for _, model := range []string{"sc", "tso", "pso", "arm", "imm"} {
		res := explore(t, fenced, model)
		if len(res.Errors) != 0 {
			t.Errorf("treiber+lw must be safe under %s: %v", model, res.Errors[0].Msg)
		}
	}
}
