package core

import (
	"slices"
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
// the cut keep, r reading from w, and a rebound update moved coherence-
// immediately after w (rebindAndVisit).
func rebind(g *eg.Graph, keep []int, w, r eg.EvID) *eg.Graph {
	g2 := g.Restrict(keep)
	g2.SetRF(r, w)
	if ev := g2.Event(r); ev.Kind == eg.KUpdate {
		g2.CoRemove(ev.Loc, r)
		g2.CoInsert(ev.Loc, g2.CoIndex(ev.Loc, w)+1, r)
	}
	return g2
}

// forEachRebind calls fn for every revisit-style rebind over graphs
// captured from the corpus × 8 models and gen.Random(0..99): each read r
// against each same-location write w it does not read.
func forEachRebind(t *testing.T, fn func(name, model string, p *prog.Program, g *eg.Graph, w, r eg.EvID)) {
	const graphsPer = 6
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
				fn(name, model, p, g, pr[0], pr[1])
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
}

// TestRepairFromMatchesFullSweep: the dirty-thread worklist makes exactly
// the patches of the full-sweep loop. Every rebind of forEachRebind — with
// the phase-1 keep cut and, when pruning applies, the phase-2 one — is
// repaired on two clones, once by interp.RepairFrom seeded with r's
// thread and once by the reference. Outcome and Key must agree, also when
// repair fails (the patches made up to the failing replay must match),
// and the worklist's replays plus skipped slots must equal the
// reference's replays.
func TestRepairFromMatchesFullSweep(t *testing.T) {
	var rebinds, failed int
	forEachRebind(t, func(name, model string, p *prog.Program, g *eg.Graph, w, r eg.EvID) {
		keeps := [][]int{keepCut(g, w, r)}
		if keep2 := slices.Clone(keeps[0]); pruneTainted(g, keep2, w, r) && !slices.Equal(keep2, keeps[0]) {
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
	})
	if failed == 0 || failed == rebinds {
		t.Fatalf("test premise broken: %d of %d rebinds failed repair (want some of each)", failed, rebinds)
	}
	t.Logf("%d rebinds, %d failed repair", rebinds, failed)
}

// dfsKeepSet is the reference keep set: the events surviving the revisit
// (r, w) built as a set by DFS — everything added before r, plus the
// downward closure of w and r under po-predecessors and rf edges,
// excluding r's own rf edge.
func dfsKeepSet(g *eg.Graph, w, r eg.EvID) map[eg.EvID]bool {
	keep := make(map[eg.EvID]bool)
	var stack []eg.EvID
	push := func(id eg.EvID) {
		if !id.IsInit() && !keep[id] {
			keep[id] = true
			stack = append(stack, id)
		}
	}
	rStamp := g.Event(r).Stamp
	g.ForEach(func(ev *eg.Event) {
		if ev.Stamp < rStamp {
			push(ev.ID)
		}
	})
	push(w)
	push(r)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := 0; i < id.I; i++ {
			push(eg.EvID{T: id.T, I: i})
		}
		if id != r && g.Event(id).Kind.IsRead() {
			if src, ok := g.RF(id); ok {
				push(src)
			}
		}
	}
	return keep
}

// dfsPruneTainted is the reference existence-taint pruning over a keep
// set, by fixpoint sweeps over maps: it deletes every kept event with a
// control or address dependency on a value-tainted read, closed under
// po-successors and readers of deleted writes, and reports false (leaving
// keep unchanged) when w or r would have to go.
func dfsPruneTainted(g *eg.Graph, keep map[eg.EvID]bool, w, r eg.EvID) bool {
	taintedReads := map[eg.EvID]bool{r: true}
	taintedWrites := map[eg.EvID]bool{}
	for changed := true; changed; {
		changed = false
		g.ForEach(func(ev *eg.Event) {
			if !keep[ev.ID] {
				return
			}
			if ev.Kind.IsWrite() && !taintedWrites[ev.ID] {
				for _, d := range ev.Data {
					if taintedReads[d] {
						taintedWrites[ev.ID] = true
						changed = true
					}
				}
			}
			if ev.Kind.IsRead() && !taintedReads[ev.ID] {
				if src, ok := g.RF(ev.ID); ok && taintedWrites[src] {
					taintedReads[ev.ID] = true
					changed = true
				}
			}
		})
	}
	doomed := map[eg.EvID]bool{}
	mark := func(id eg.EvID) bool {
		if !keep[id] || doomed[id] {
			return false
		}
		doomed[id] = true
		return true
	}
	g.ForEach(func(ev *eg.Event) {
		if !keep[ev.ID] || ev.ID == r {
			return
		}
		for _, set := range [][]eg.EvID{ev.Ctrl, ev.Addr} {
			for _, d := range set {
				if taintedReads[d] {
					mark(ev.ID)
				}
			}
		}
	})
	for changed := true; changed; {
		changed = false
		g.ForEach(func(ev *eg.Event) {
			if !keep[ev.ID] || doomed[ev.ID] {
				return
			}
			for i := 0; i < ev.ID.I; i++ {
				if doomed[eg.EvID{T: ev.ID.T, I: i}] {
					if mark(ev.ID) {
						changed = true
					}
					return
				}
			}
			if ev.Kind.IsRead() && ev.ID != r {
				if src, ok := g.RF(ev.ID); ok && doomed[src] {
					if mark(ev.ID) {
						changed = true
					}
				}
			}
		})
	}
	if doomed[w] || doomed[r] {
		return false
	}
	for id := range doomed {
		delete(keep, id)
	}
	return true
}

// sameKept reports whether the cut keeps exactly the events of the set.
func sameKept(g *eg.Graph, cut []int, set map[eg.EvID]bool) bool {
	n := 0
	for t, c := range cut {
		n += c
		for i := 0; i < g.ThreadLen(t); i++ {
			if set[eg.EvID{T: t, I: i}] != (i < c) {
				return false
			}
		}
	}
	return n == len(set)
}

// TestKeepCutMatchesDFS: keepCut and pruneTainted keep exactly the events
// of the reference DFS keep set and map-based pruning, on every rebind of
// forEachRebind, in phase 1 and in phase 2 (equal outcome, and equal
// sets when pruning succeeds).
func TestKeepCutMatchesDFS(t *testing.T) {
	var rebinds, pruned, shrunk int
	forEachRebind(t, func(name, model string, _ *prog.Program, g *eg.Graph, w, r eg.EvID) {
		rebinds++
		cut, set := keepCut(g, w, r), dfsKeepSet(g, w, r)
		if !sameKept(g, cut, set) {
			t.Fatalf("%s/%s: revisit (%v, %v): phase-1 cut %v, DFS set %v\n%v", name, model, w, r, cut, set, g)
		}
		cut2 := slices.Clone(cut)
		ok, refOK := pruneTainted(g, cut2, w, r), dfsPruneTainted(g, set, w, r)
		if ok != refOK {
			t.Fatalf("%s/%s: revisit (%v, %v): pruneTainted ok=%v, reference ok=%v\n%v", name, model, w, r, ok, refOK, g)
		}
		if !ok {
			return
		}
		pruned++
		if !sameKept(g, cut2, set) {
			t.Fatalf("%s/%s: revisit (%v, %v): phase-2 cut %v, reference set %v\n%v", name, model, w, r, cut2, set, g)
		}
		if !slices.Equal(cut2, cut) {
			shrunk++
		}
	})
	if shrunk == 0 || pruned == rebinds {
		t.Fatalf("test premise broken: %d rebinds, %d pruned, %d shrunk (want some doomed and some shrunk)", rebinds, pruned, shrunk)
	}
	t.Logf("%d rebinds, %d pruned, %d shrunk", rebinds, pruned, shrunk)
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
