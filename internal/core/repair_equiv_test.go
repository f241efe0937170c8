package core

import (
	"testing"

	"hmc/internal/eg"
	"hmc/internal/gen"
	"hmc/internal/interp"
	"hmc/internal/litmus"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// fullSweepRepair is the reference repair loop: every sweep replays every
// thread, and repair succeeds after a sweep without a patch. It returns
// the outcome and the number of thread replays it ran.
func fullSweepRepair(p *prog.Program, g *eg.Graph, maxSteps int) (ok bool, replays int) {
	limit := g.NumEvents() + 2
	for pass := 0; pass < limit; pass++ {
		anyChange := false
		for t := range p.Threads {
			replays++
			changed, ok := interp.Repair(p, g, t, maxSteps)
			if !ok {
				return false, replays
			}
			anyChange = anyChange || changed
		}
		if !anyChange {
			return true, replays
		}
	}
	return false, replays
}

// repairGraphs returns up to limit complete or blocked graphs of p under
// model, as the explorer holds them: every thread replays without a
// patch, which is RepairFrom's precondition on the threads it leaves
// clean.
func repairGraphs(t *testing.T, p *prog.Program, model string, limit int) []*eg.Graph {
	t.Helper()
	m, err := memmodel.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	var graphs []*eg.Graph
	keep := func(g *eg.Graph) {
		if len(graphs) < limit {
			graphs = append(graphs, g.Clone())
		}
	}
	if _, err := Explore(p, Options{
		Model:       m,
		OnExecution: func(g *eg.Graph, _ prog.FinalState) { keep(g) },
		OnBlocked:   keep,
	}); err != nil {
		t.Fatal(err)
	}
	return graphs
}

// rebind builds the graph a revisit of r by w repairs: g restricted to
// keep, r reading from w, and a rebound update moved coherence-
// immediately after w (rebindAndVisit).
func rebind(g *eg.Graph, keep map[eg.EvID]bool, w, r eg.EvID) *eg.Graph {
	g2 := g.Restrict(func(id eg.EvID) bool { return keep[id] })
	g2.SetRF(r, w)
	if ev := g2.Event(r); ev.Kind == eg.KUpdate {
		g2.CoRemove(ev.Loc, r)
		g2.CoInsert(ev.Loc, g2.CoIndex(ev.Loc, w)+1, r)
	}
	return g2
}

// TestRepairFromMatchesFullSweep: the dirty-thread worklist makes exactly
// the patches of the full-sweep loop. Over graphs captured from the
// corpus × 8 models and gen.Random(0..99), every revisit-style rebind —
// each read r against each same-location write w it does not read, with
// the phase-1 keep set and, when pruning applies, the phase-2 one — is
// repaired on two clones, once by interp.RepairFrom seeded with r's
// thread and once by the reference. Outcome and Key must agree, also when
// repair fails (the patches made up to the failing replay must match),
// and the worklist's replays plus skipped slots must equal the
// reference's replays.
func TestRepairFromMatchesFullSweep(t *testing.T) {
	const graphsPer = 6
	var rebinds, failed int
	check := func(name string, p *prog.Program, model string) {
		for _, g := range repairGraphs(t, p, model, graphsPer) {
			var pairs [][2]eg.EvID
			g.ForEach(func(rev *eg.Event) {
				if !rev.Kind.IsRead() {
					return
				}
				src, _ := g.RF(rev.ID)
				g.ForEach(func(wev *eg.Event) {
					if wev.Kind.IsWrite() && wev.Loc == rev.Loc && wev.ID != rev.ID && wev.ID != src {
						pairs = append(pairs, [2]eg.EvID{wev.ID, rev.ID})
					}
				})
			})
			for _, pr := range pairs {
				w, r := pr[0], pr[1]
				keeps := []map[eg.EvID]bool{keepSet(g, w, r)}
				if keep2 := keepSet(g, w, r); pruneTainted(g, keep2, w, r) && len(keep2) != len(keeps[0]) {
					keeps = append(keeps, keep2)
				}
				for _, keep := range keeps {
					g2 := rebind(g, keep, w, r)
					ref := g2.Clone()
					rs, ok := interp.RepairFrom(p, g2, 0, r.T)
					refOK, refReplays := fullSweepRepair(p, ref, 0)
					rebinds++
					if !ok {
						failed++
					}
					if ok != refOK {
						t.Fatalf("%s/%s: revisit (%v, %v): worklist ok=%v, full sweep ok=%v\n%v",
							name, model, w, r, ok, refOK, g)
					}
					if g2.Key() != ref.Key() {
						t.Fatalf("%s/%s: revisit (%v, %v) repaired differently (ok=%v):\nworklist:\n%v\nfull sweep:\n%v",
							name, model, w, r, ok, g2, ref)
					}
					if rs.Replays+rs.SkippedClean != refReplays {
						t.Fatalf("%s/%s: revisit (%v, %v): %d replays + %d skipped, full sweep %d replays",
							name, model, w, r, rs.Replays, rs.SkippedClean, refReplays)
					}
				}
			}
		}
	}
	for _, tc := range litmus.Corpus() {
		for _, model := range memmodel.Names() {
			check(tc.Name, tc.P, model)
		}
	}
	for seed := int64(0); seed < 100; seed++ {
		p := gen.Random(seed)
		for _, model := range memmodel.Names() {
			check(p.Name, p, model)
		}
	}
	if failed == 0 || failed == rebinds {
		t.Fatalf("test premise broken: %d of %d rebinds failed repair (want some of each)", failed, rebinds)
	}
	t.Logf("%d rebinds, %d failed repair", rebinds, failed)
}

// TestRepairSkipsCleanThreads: an SB(n) revisit rebinds a read whose
// value feeds no write, so its repair patches nothing and replays only
// the rebound read's thread, skipping the other n-1.
func TestRepairSkipsCleanThreads(t *testing.T) {
	const n = 6
	res := explore(t, gen.SBN(n), "tso", Options{})
	if res.RevisitsTried == 0 || res.RevisitsRepairFail != 0 {
		t.Fatalf("test premise broken: %d revisits tried, %d failed", res.RevisitsTried, res.RevisitsRepairFail)
	}
	// One repair per revisit: phase 1 always succeeds.
	if res.RepairReplays != res.RevisitsTried || res.RepairSkippedClean != (n-1)*res.RevisitsTried {
		t.Errorf("%d repairs ran %d replays and skipped %d, want %d and %d",
			res.RevisitsTried, res.RepairReplays, res.RepairSkippedClean, res.RevisitsTried, (n-1)*res.RevisitsTried)
	}
}
