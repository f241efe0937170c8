package crossval

import (
	"fmt"
	"testing"

	"hmc/internal/axenum"
	"hmc/internal/core"
	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// refCompare runs the graph explorer and the herd-style reference
// enumerator and diffs their execution sets (not just final states). It
// fails the test if the explorer recorded any execution twice.
func refCompare(t *testing.T, p *prog.Program, model string) (missing, extra, refN int) {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := axenum.Explore(p, axenum.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Explore(p, core.Options{Model: m, CollectKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckDistinctKeys(); err != nil {
		t.Errorf("%s under %s: %v", p.Name, model, err)
	}
	gotSet := map[string]bool{}
	for _, k := range got.Keys {
		gotSet[k] = true
	}
	for k := range ref.Keys {
		if !gotSet[k] {
			missing++
		}
	}
	for k := range gotSet {
		if !ref.Keys[k] {
			extra++
		}
	}
	return missing, extra, ref.Consistent
}

// TestCorpusAgainstReference checks, for every litmus test and every
// model, that the explorer's execution set exactly equals the reference
// enumeration and that no execution is explored twice.
//
// The one sanctioned difference: under the coherence-only "relaxed" model
// the value-oracle reference manufactures out-of-thin-air executions
// (self-justifying value cycles), which constructive exploration — like
// real hardware — never produces. For that model only, the explorer may
// be a subset of the reference.
func TestCorpusAgainstReference(t *testing.T) {
	for _, tc := range corpusForRef() {
		for _, model := range memmodel.Names() {
			missing, extra, _ := refCompare(t, tc.p, model)
			if extra != 0 {
				t.Errorf("%s under %s: extra=%d", tc.name, model, extra)
			}
			if missing != 0 && model != "relaxed" {
				t.Errorf("%s under %s: %d executions missed", tc.name, model, missing)
			}
		}
	}
}

type refCase struct {
	name string
	p    *prog.Program
}

func corpusForRef() []refCase {
	var out []refCase
	for _, tc := range corpusTests() {
		out = append(out, refCase{tc.Name, tc.P})
	}
	return out
}

// TestRandomAgainstReference diffs execution sets on random programs:
// soundness (no spurious executions), completeness (nothing missed, except
// out-of-thin-air value cycles under "relaxed", which constructive
// exploration never builds), and optimality (no duplicates).
func TestRandomAgainstReference(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 40
	}
	for seed := int64(0); seed < int64(n); seed++ {
		p := randomProgram(seed)
		size := 0
		for _, th := range p.Threads {
			size += len(th)
		}
		if size > 7 {
			continue // keep the reference enumeration tractable
		}
		for _, model := range memmodel.Names() {
			missing, extra, refN := refCompare(t, p, model)
			if extra != 0 {
				t.Errorf("%s under %s: %d spurious executions (soundness violated)", p.Name, model, extra)
			}
			if missing != 0 && model != "relaxed" {
				t.Errorf("%s under %s: %d/%d executions missed", p.Name, model, missing, refN)
			}
		}
	}
}

// TestUpdateFamiliesAgainstReference diffs execution sets on the
// read-modify-write families that TestRandomAgainstReference's size cap
// leaves out. Their update chains are built only forward, by chain
// steals (update→update backward revisits are never tried), so this is
// the oracle check that no chain permutation is lost. inc(2,3),
// spinlock(3)+lw and treiber+lw match too, but take minutes in the
// reference enumerator.
func TestUpdateFamiliesAgainstReference(t *testing.T) {
	for _, p := range []*prog.Program{
		gen.IncN(2, 2), gen.IncN(3, 1), gen.CASContendN(3),
		gen.SpinlockN(2, eg.FenceLW), gen.IndexerN(2), gen.Peterson(eg.FenceLW),
	} {
		for _, model := range memmodel.Names() {
			missing, extra, refN := refCompare(t, p, model)
			if extra != 0 {
				t.Errorf("%s under %s: extra=%d", p.Name, model, extra)
			}
			if missing != 0 && model != "relaxed" {
				t.Errorf("%s under %s: %d/%d executions missed", p.Name, model, missing, refN)
			}
		}
	}
}

// TestReferenceSelfCheck sanity-checks the reference enumerator itself on
// hand-countable programs.
func TestReferenceSelfCheck(t *testing.T) {
	m, _ := memmodel.ByName("relaxed")
	for _, tc := range []struct {
		name string
		want int
	}{
		{"SB", 4}, {"MP", 4}, {"LB", 4}, {"IRIW", 16}, {"CoRR", 3}, {"inc(2)", 2},
	} {
		c, ok := corpusByName(tc.name)
		if !ok {
			t.Fatalf("missing corpus test %s", tc.name)
		}
		res, err := axenum.Explore(c, axenum.Options{Model: m})
		if err != nil {
			t.Fatal(err)
		}
		if res.Consistent != tc.want {
			t.Errorf("reference on %s under relaxed: %d executions, want %d", tc.name, res.Consistent, tc.want)
		}
		if res.Candidates < res.Consistent {
			t.Errorf("reference on %s: candidates %d < consistent %d", tc.name, res.Candidates, res.Consistent)
		}
	}
}

func TestReferenceCandidateBlowup(t *testing.T) {
	// The point of the T2 comparison: candidate count ≫ consistent count.
	c, _ := corpusByName("inc(3)")
	if c == nil {
		var ok bool
		c, ok = corpusByName("inc(2)")
		if !ok {
			t.Skip("no inc corpus entry")
		}
	}
	m, _ := memmodel.ByName("sc")
	res, err := axenum.Explore(c, axenum.Options{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.Candidates <= 2*res.Consistent {
		t.Errorf("expected candidate blowup on IRIW: candidates=%d consistent=%d",
			res.Candidates, res.Consistent)
	}
}

var _ = fmt.Sprintf
