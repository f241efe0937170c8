package core

import (
	"slices"

	"hmc/internal/eg"
)

// revisitsFrom attempts a backward revisit of every same-location read by
// the write w — which is already part of g, carrying its rf (if an update)
// and coherence position. Revisits are computed per forward branch of w's
// addition, so the kept prefix reflects exactly the bindings of this
// branch.
//
// When w is an update, reads that are themselves updates are skipped: the
// forward chain steal (stepRead) already builds every such pair. Take a
// consistent graph G in which an update u reads from the update w, with u
// added before w. Atomicity puts u coherence-immediately after w, and w
// reads some write s. Cutting w out of the chain — u reading s instead,
// values repaired — leaves a consistent graph in which w is still to be
// added, and which the explorer reaches by induction on the events added.
// There, w's read branch rf = s finds u already reading s and steals it:
// w slots in after s and u is rebound to w, which rebuilds G's chain. So
// every coherence permutation of an atomic-update chain is reached
// forward, and the backward revisit of u by w could only rebuild a state
// the steal produces (a memo hit) or fail repair. TestRMWChainsReachedForward
// and the axenum cross-validation of the update families pin this. Plain
// reads, and failed CASes (which materialise as plain reads), are still
// revisited. The skipped reads are counted in Stats.RevisitsChainSkipped
// and traced as a "chain" prune, once per scan.
func (e *explorer) revisitsFrom(g *eg.Graph, w eg.EvID, loc eg.Loc) {
	chain := g.Event(w).Kind == eg.KUpdate
	skipped := 0
	var reads []eg.EvID
	g.ForEach(func(ev *eg.Event) {
		if !ev.Kind.IsRead() || ev.Loc != loc || ev.ID == w {
			return
		}
		if src, ok := g.RF(ev.ID); ok && src == w {
			return // already bound to w (e.g. by a chain steal): a no-op
		}
		if chain && ev.Kind == eg.KUpdate {
			skipped++ // update→update: reached forward by a chain steal
			return
		}
		reads = append(reads, ev.ID)
	})
	if skipped > 0 {
		e.count(func(s *Stats) { s.RevisitsChainSkipped += skipped })
		e.tracePrune("chain", skipped)
	}
	for _, r := range reads {
		if e.stopped() {
			return
		}
		r := r
		e.fork(func() { e.revisit(g, w, r) })
	}
}

// Causes of a failed revisit: the suffix of the Stats.RevisitsRepairFail*
// counter it lands in, and the cause of its "revisit-failed" trace event.
const (
	failDiverged     = "diverged"
	failInconsistent = "inconsistent"
	failDoomed       = "doomed"
	failOOTA         = "oota"
)

// revisit performs one backward revisit: the write w (already in g)
// becomes the rf source of the existing read r. The graph is restricted to
// the kept set
//
//	V = prefix(w) ∪ prefix(r) ∪ {r}
//
// together with every event added before r, where prefix is the downward
// closure under po-predecessors and rf edges — except r's own rf edge,
// which the revisit erases. V is closed under po-predecessors, so it is
// a per-thread cut: one prefix length per thread (keepCut), and the
// restriction truncates each thread. The revisit goes through when
//
//  1. re-replaying every thread against the rebound graph *repairs* it:
//     kept events whose data depends on r get their written values (and
//     CAS success/failure) patched, and no event diverges structurally.
//     This is the HMC dependency condition: independent po-successors of
//     r survive, which is what makes po∪rf-cyclic — load-buffering —
//     executions reachable under hardware memory models;
//  2. the resulting graph is consistent under the memory model;
//  3. the resulting exploration state is new (the explorer's state memo;
//     see explorer.visit). Different branches can still collapse into the
//     same revisited state — the revisit erases r's binding and deletes
//     events, so on load-buffering and spinlock shapes two revisits may
//     rebuild one graph — and the memo admits exactly one of them. RMW
//     chains do not collapse this way: revisitsFrom leaves their
//     update→update pairs to the forward chain steal.
//
// A revisit that explores nothing is counted in RevisitsRepairFail and in
// exactly one of its causes (diverged, inconsistent, doomed, oota).
func (e *explorer) revisit(g *eg.Graph, w, r eg.EvID) {
	if e.stopped() {
		return
	}
	e.count(func(s *Stats) { s.RevisitsTried++ })
	e.traceRevisit("revisit-tried", w, r)

	// Phase 1: keep everything the revisit does not causally erase and
	// rely on replay repair to patch values (value-preserving dependency
	// idioms survive this way).
	ts := e.tRevisit.Start()
	keep := keepCut(g, w, r)
	e.tRevisit.Stop(ts)
	if e.rebindAndVisit(g, keep, w, r) == "" {
		return
	}
	// Phase 2: when replay diverged structurally — or the repaired graph
	// was inconsistent, which extra deletion may cure — events whose
	// existence hangs on r (control/address dependencies and their
	// dependents) are deleted and re-derived instead. The state memo
	// deduplicates any overlap between the phases.
	ts2 := e.tRevisit.Start()
	keep2 := slices.Clone(keep)
	pruned := pruneTainted(g, keep2, w, r)
	e.tRevisit.Stop(ts2)
	switch {
	case !pruned:
		e.revisitFailed(w, r, failDoomed)
	case slices.Equal(keep2, keep):
		// Nothing prunable: the divergence is a genuine value cycle
		// (out-of-thin-air), which constructive exploration rejects.
		e.revisitFailed(w, r, failOOTA)
	default:
		if cause := e.rebindAndVisit(g, keep2, w, r); cause != "" {
			e.revisitFailed(w, r, cause)
		}
	}
}

// revisitFailed counts a revisit that explored nothing under its cause
// and traces it.
func (e *explorer) revisitFailed(w, r eg.EvID, cause string) {
	e.count(func(s *Stats) {
		s.RevisitsRepairFail++
		switch cause {
		case failDiverged:
			s.RevisitsRepairFailDiverged++
		case failInconsistent:
			s.RevisitsRepairFailInconsistent++
		case failDoomed:
			s.RevisitsRepairFailDoomed++
		case failOOTA:
			s.RevisitsRepairFailOOTA++
		}
	})
	e.traceRevisitFailed(w, r, cause)
}

// rebindAndVisit restricts g to the cut keep, rebinds r to w, repairs
// and — when replay converges — checks consistency and explores. It
// returns "" when the rebound graph both repaired and passed the
// consistency check, and otherwise the cause of the failure (failDiverged
// or failInconsistent).
func (e *explorer) rebindAndVisit(g *eg.Graph, keep []int, w, r eg.EvID) string {
	if e.opts.PorfOnlyRevisits {
		// Ablation: RC11-style revisits delete everything po-after r.
		// If a kept event other than w is po-after r the revisit is
		// skipped entirely (under porf-acyclic models it would be
		// inconsistent anyway).
		after := keep[r.T] - r.I - 1
		if w.T == r.T && w.I > r.I {
			after--
		}
		if after > 0 {
			e.count(func(s *Stats) { s.RevisitsPorfSkip++ })
			return ""
		}
	}

	// The revisit timer covers restriction, rebinding and repair — the
	// revisit machinery itself. The consistency check and any nested
	// exploration are attributed to their own phases.
	ts := e.tRevisit.Start()
	g2 := g.Restrict(keep)
	loc := g2.Event(r).Loc
	g2.SetRF(r, w)

	// A rebound update must sit coherence-immediately after its new rf
	// source: move it there (its old position was tied to its old rf).
	if g2.Event(r).Kind == eg.KUpdate {
		g2.CoRemove(loc, r)
		g2.CoInsert(loc, g2.CoIndex(loc, w)+1, r)
	}

	repaired := e.repair(g2, r.T)
	e.tRevisit.Stop(ts)
	if !repaired {
		return failDiverged
	}
	if !e.consistent(g2) {
		return failInconsistent
	}
	e.count(func(s *Stats) { s.RevisitsTaken++ })
	e.traceRevisit("revisit-taken", w, r)
	e.fork(func() { e.visit(g2) })
	return ""
}

// keepCut computes the events surviving the revisit (r, w) as a cut: one
// prefix length per thread. It keeps everything added before r, plus the
// downward closure of w (and of r itself) under po-predecessors and rf
// edges — excluding r's own rf edge, which the revisit erases. Stamps
// increase along po, so "added before r" is a per-thread prefix, and a
// set closed under po-predecessors stays one: the closure only raises
// cuts. Events added after r that the revisiting write does not causally
// need are deleted and re-derived by continued exploration; the
// rf-closure pulls back any deleted write that a kept read still needs,
// so the restricted graph replays. Init events are implicit and never
// counted.
func keepCut(g *eg.Graph, w, r eg.EvID) []int {
	n := g.NumThreads()
	cut := make([]int, n)
	rStamp := g.EventRef(r).Stamp
	for t := range cut {
		for cut[t] < g.ThreadLen(t) && g.EventRef(eg.EvID{T: t, I: cut[t]}).Stamp < rStamp {
			cut[t]++
		}
	}
	cut[w.T] = max(cut[w.T], w.I+1)
	cut[r.T] = max(cut[r.T], r.I+1)
	// Close under the rf sources of kept reads: one forward scan per
	// thread, resumed wherever a source raises a cut behind it.
	scanned := make([]int, n)
	for grown := true; grown; {
		grown = false
		for t := range cut {
			for ; scanned[t] < cut[t]; scanned[t]++ {
				id := eg.EvID{T: t, I: scanned[t]}
				if src, ok := g.RF(id); ok && id != r && !src.IsInit() && src.I >= cut[src.T] {
					cut[src.T] = src.I + 1
					grown = true
				}
			}
		}
	}
	return cut
}

// pruneTainted lowers cut past every event whose *existence* depends on
// the revisited read r: events with a control or address dependency on a
// value-tainted read (their branch outcome or target location may change
// when r is rebound), plus everything that transitively needs them
// (po-successors and readers). Value-only taint (data dependencies) stays:
// replay repair patches written values in place. It reports false when the
// revisiting write w or r itself would have to go — the revisit is then
// contradictory and abandoned, and cut must not be used.
func pruneTainted(g *eg.Graph, cut []int, w, r eg.EvID) bool {
	// Value taint, one flag pair per kept event (dense by thread): reads
	// whose observed value may change when r is rebound, and writes whose
	// stored value may change. An update carries both flags.
	const taintR, taintW = 1, 2
	base := make([]int, len(cut)+1)
	for t, n := range cut {
		base[t+1] = base[t] + n
	}
	taint := make([]uint8, base[len(cut)])
	at := func(id eg.EvID) *uint8 { return &taint[base[id.T]+id.I] }
	*at(r) = taintR
	for changed := true; changed; {
		changed = false
		for t, n := range cut {
			for i := 0; i < n; i++ {
				ev, f := g.EventRef(eg.EvID{T: t, I: i}), &taint[base[t]+i]
				if ev.Kind.IsWrite() && *f&taintW == 0 {
					for _, d := range ev.Data {
						if *at(d)&taintR != 0 {
							*f |= taintW
							changed = true
						}
					}
				}
				if ev.Kind.IsRead() && *f&taintR == 0 {
					if src, ok := g.RF(ev.ID); ok && !src.IsInit() && *at(src)&taintW != 0 {
						*f |= taintR
						changed = true
					}
				}
			}
		}
	}

	// Existence taint: a ctrl/addr dependency on a tainted read dooms the
	// event and, with it, the rest of its thread's kept prefix. So the
	// doomed events of each thread are a suffix of its kept prefix, and
	// lim[t] — the cut, lowered in place — is the first doomed index.
	lim := cut
	for t, n := range cut {
	seed:
		for i := 0; i < n; i++ {
			ev := g.EventRef(eg.EvID{T: t, I: i})
			if ev.ID == r {
				continue
			}
			for _, set := range [][]eg.EvID{ev.Ctrl, ev.Addr} {
				for _, d := range set {
					if *at(d)&taintR != 0 {
						lim[t] = i
						break seed
					}
				}
			}
		}
	}
	// A kept read (other than r) of a doomed write is doomed too.
	for changed := true; changed; {
		changed = false
		for t := range lim {
			for i := 0; i < lim[t]; i++ {
				id := eg.EvID{T: t, I: i}
				if src, ok := g.RF(id); ok && id != r && !src.IsInit() && src.I >= lim[src.T] {
					lim[t] = i
					changed = true
				}
			}
		}
	}
	return w.I < lim[w.T] && r.I < lim[r.T]
}
