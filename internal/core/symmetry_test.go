package core

import (
	"fmt"
	"sort"
	"testing"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

func exploreSym(t *testing.T, p *prog.Program, model string, sym bool) *Result {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(p, Options{Model: m, Symmetry: sym, CollectKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	assertDistinctKeys(t, fmt.Sprintf("%s symmetry=%v", p.Name, sym), res)
	return res
}

// TestSymmetryPerms checks the generator: one group of 3 among 4 threads
// yields the 5 non-identity permutations fixing the outsider.
func TestSymmetryPerms(t *testing.T) {
	perms := symmetryPerms(4, [][]int{{0, 2, 3}})
	if len(perms) != 5 {
		t.Fatalf("3! - 1 = 5 permutations, got %d: %v", len(perms), perms)
	}
	for _, p := range perms {
		if p[1] != 1 {
			t.Errorf("thread 1 is not in the group and must be fixed: %v", p)
		}
		seen := map[int]bool{}
		for _, v := range p {
			seen[v] = true
		}
		if len(seen) != 4 {
			t.Errorf("not a permutation: %v", p)
		}
	}
	if got := symmetryPerms(3, nil); len(got) != 0 {
		t.Errorf("no groups → no permutations, got %v", got)
	}
}

// TestSymmetryCounterOrbits pins the orbit counts for the atomic-counter
// family, where all threads are identical: inc(n,1) has n! executions
// (the RMW chain orders) forming a single orbit; inc(2,2) has the 6
// interleavings of AABB collapsing into 3 orbits (no interleaving is
// fixed by the swap).
func TestSymmetryCounterOrbits(t *testing.T) {
	cases := []struct {
		p         *prog.Program
		full, sym int
	}{
		{gen.IncN(2, 1), 2, 1},
		{gen.IncN(3, 1), 6, 1},
		{gen.IncN(4, 1), 24, 1},
		{gen.IncN(2, 2), 6, 3},
	}
	for _, tc := range cases {
		full := exploreSym(t, tc.p, "sc", false)
		sym := exploreSym(t, tc.p, "sc", true)
		if full.Executions != tc.full || sym.Executions != tc.sym {
			t.Errorf("%s: full=%d (want %d), symmetric=%d (want %d)",
				tc.p.Name, full.Executions, tc.full, sym.Executions, tc.sym)
		}
		if full.ExistsCount != 0 || sym.ExistsCount != 0 {
			t.Errorf("%s: lost update must stay forbidden under reduction", tc.p.Name)
		}
	}
}

// TestSymmetryOrbitExactness is the general correctness property: the
// symmetric run's executions are exactly the canonical representatives of
// the full run's orbit partition — computed independently by
// canonicalizing every full-run execution graph.
func TestSymmetryOrbitExactness(t *testing.T) {
	symStore := func(n int) *prog.Program {
		b := prog.NewBuilder("symstore")
		x := b.Loc("x")
		for i := 0; i < n; i++ {
			th := b.Thread()
			th.Store(x, prog.Const(1))
			th.Load(x)
		}
		return b.MustBuild()
	}
	symCAS := func(n int) *prog.Program {
		b := prog.NewBuilder("symcas")
		x := b.Loc("x")
		for i := 0; i < n; i++ {
			th := b.Thread()
			th.CAS(x, prog.Const(0), prog.Const(1))
		}
		return b.MustBuild()
	}
	programs := []*prog.Program{
		gen.IncN(3, 2), symStore(3), symCAS(3),
	}
	for _, p := range programs {
		for _, model := range []string{"sc", "tso", "arm"} {
			m, _ := memmodel.ByName(model)
			perms := symmetryPerms(len(p.Threads), p.SymmetryGroups())
			if len(perms) == 0 {
				t.Fatalf("%s: expected symmetric threads", p.Name)
			}
			canon := func(g *eg.Graph) string {
				key := g.Key()
				for _, perm := range perms {
					if k := g.RenameThreads(perm).Key(); k < key {
						key = k
					}
				}
				return key
			}
			orbits := map[string]bool{}
			full, err := Explore(p, Options{Model: m, OnExecution: func(g *eg.Graph, fs prog.FinalState) {
				orbits[canon(g)] = true
			}})
			if err != nil {
				t.Fatal(err)
			}
			sym := exploreSym(t, p, model, true)
			if sym.Executions != len(orbits) {
				t.Errorf("%s/%s: symmetric run found %d executions, orbit partition has %d (full: %d)",
					p.Name, model, sym.Executions, len(orbits), full.Executions)
			}
			want := make([]string, 0, len(orbits))
			for k := range orbits {
				want = append(want, k)
			}
			sort.Strings(want)
			got := append([]string(nil), sym.Keys...)
			sort.Strings(got)
			if len(got) == len(want) {
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("%s/%s: canonical key sets differ", p.Name, model)
						break
					}
				}
			}
		}
	}
}

// TestSymmetryNoGroupsIsIdentityRun: programs without identical threads
// must be completely unaffected by the option.
func TestSymmetryNoGroupsIsIdentityRun(t *testing.T) {
	p := gen.SBN(3) // each thread touches different locations
	if groups := p.SymmetryGroups(); len(groups) != 0 {
		t.Fatalf("SB threads are not symmetric, got groups %v", groups)
	}
	full := exploreSym(t, p, "tso", false)
	sym := exploreSym(t, p, "tso", true)
	if full.Executions != sym.Executions || full.ExistsCount != sym.ExistsCount {
		t.Errorf("asymmetric program changed under reduction: %+v vs %+v", full.Stats, sym.Stats)
	}
}

// TestSymmetryWithWorkers: the two options compose — parallel workers
// share the canonical-key memo, so orbit counts must match the sequential
// symmetric run.
func TestSymmetryWithWorkers(t *testing.T) {
	p := gen.IncN(3, 2)
	m, _ := memmodel.ByName("tso")
	seq, err := Explore(p, Options{Model: m, Symmetry: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Explore(p, Options{Model: m, Symmetry: true, CollectKeys: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	assertDistinctKeys(t, "parallel symmetric run", par)
	if seq.Executions != par.Executions {
		t.Errorf("parallel symmetric run: %d executions, sequential: %d",
			par.Executions, seq.Executions)
	}
}
