package eg

import (
	"sync"

	"hmc/internal/relation"
)

// View is a dense snapshot of a graph: every event (init events first, then
// thread events in (thread, index) order) is assigned an index 0..N-1, and
// the standard memory-model relations are exposed as relation.Rel values.
// Relations are memoized; a View must not outlive mutations of its Graph.
//
// The dense layout is arithmetic: init event for location l sits at index l,
// and thread t's events occupy the contiguous block [off[t], threadEnd(t)).
// Idx is therefore a couple of adds, not a map lookup.
type View struct {
	G      *Graph
	Events []Event // dense order
	N      int

	numLocs int
	off     []int // off[t] = dense index of thread t's first event

	// arena is non-nil for pooled views (GetView); Empty then allocates
	// relation rows from it instead of the heap, and PutView recycles the
	// whole bundle for the next consistency check.
	arena *relation.Arena

	po, poloc, rf, rfe, rfi, co, fr, eco *relation.Rel
	depAddr, depData, depCtrl, depAll    *relation.Rel
}

// NewView snapshots g with heap-allocated relations. Use GetView/PutView on
// the exploration hot path.
func NewView(g *Graph) *View {
	v := &View{}
	v.init(g)
	return v
}

// viewPool recycles views (and their relation arenas) across consistency
// checks; see GetView.
var viewPool = sync.Pool{New: func() any { return &View{arena: new(relation.Arena)} }}

// GetView returns a pooled view of g whose relations are allocated from a
// per-view arena. It is a drop-in replacement for NewView on the hot path;
// the caller must release it with PutView, after which the view and every
// relation obtained from it are invalid.
func GetView(g *Graph) *View {
	v := viewPool.Get().(*View)
	v.arena.Reset()
	v.init(g)
	return v
}

// PutView recycles a view obtained from GetView. Passing a view made by
// NewView is a harmless no-op.
func PutView(v *View) {
	if v == nil || v.arena == nil {
		return
	}
	v.G = nil
	v.Events = v.Events[:0]
	v.clearMemos()
	viewPool.Put(v)
}

// init (re)builds the dense snapshot of g, reusing v's buffers.
func (v *View) init(g *Graph) {
	v.G = g
	v.numLocs = g.numLocs
	v.Events = v.Events[:0]
	for l := 0; l < g.numLocs; l++ {
		v.Events = append(v.Events, Event{ID: InitID(Loc(l)), Kind: KInit, Loc: Loc(l)})
	}
	v.off = v.off[:0]
	for _, th := range g.threads {
		v.off = append(v.off, len(v.Events))
		v.Events = append(v.Events, th...)
	}
	v.N = len(v.Events)
	v.clearMemos()
}

func (v *View) clearMemos() {
	v.po, v.poloc, v.rf, v.rfe, v.rfi, v.co, v.fr, v.eco = nil, nil, nil, nil, nil, nil, nil, nil
	v.depAddr, v.depData, v.depCtrl, v.depAll = nil, nil, nil, nil
}

// threadEnd returns one past the dense index of thread t's last event.
func (v *View) threadEnd(t int) int {
	if t+1 < len(v.off) {
		return v.off[t+1]
	}
	return v.N
}

// Idx returns the dense index of an event.
func (v *View) Idx(id EvID) int {
	if id.IsInit() {
		if id.I < 0 || id.I >= v.numLocs {
			panic("eg: view index for absent event " + id.String())
		}
		return id.I
	}
	if id.T < 0 || id.T >= len(v.off) || id.I < 0 || v.off[id.T]+id.I >= v.threadEnd(id.T) {
		panic("eg: view index for absent event " + id.String())
	}
	return v.off[id.T] + id.I
}

// Empty returns a fresh empty relation over the view's universe (allocated
// from the view's arena when it has one).
func (v *View) Empty() *relation.Rel {
	if v.arena != nil {
		return v.arena.New(v.N)
	}
	return relation.New(v.N)
}

// Po returns program order: same-thread (i < j) pairs, plus every init
// event before every thread event (the conventional extension that makes
// SC's acyclicity include initialisation). Rows are dense intervals in the
// view's layout, so they are built with word fills.
func (v *View) Po() *relation.Rel {
	if v.po != nil {
		return v.po
	}
	r := v.Empty()
	for a := 0; a < v.numLocs; a++ {
		r.AddRange(a, v.numLocs, v.N)
	}
	for t := range v.off {
		hi := v.threadEnd(t)
		for a := v.off[t]; a < hi; a++ {
			r.AddRange(a, a+1, hi)
		}
	}
	v.po = r
	return r
}

// PoLoc returns po restricted to same-location memory accesses (init
// events relate only to accesses of their own location).
func (v *View) PoLoc() *relation.Rel {
	if v.poloc != nil {
		return v.poloc
	}
	r := v.Empty()
	for t := range v.off {
		hi := v.threadEnd(t)
		for a := v.off[t]; a < hi; a++ {
			ea := &v.Events[a]
			if ea.Kind == KFence {
				continue
			}
			r.Add(int(ea.Loc), a) // init write of ea.Loc precedes every access of it
			for b := a + 1; b < hi; b++ {
				if eb := &v.Events[b]; eb.Kind != KFence && eb.Loc == ea.Loc {
					r.Add(a, b)
				}
			}
		}
	}
	v.poloc = r
	return r
}

// Rf returns the reads-from relation (write → read), built by scanning the
// dense event list in order.
func (v *View) Rf() *relation.Rel {
	if v.rf != nil {
		return v.rf
	}
	r := v.Empty()
	for b := v.numLocs; b < v.N; b++ {
		ev := &v.Events[b]
		if !ev.Kind.IsRead() {
			continue
		}
		if w, ok := v.G.RF(ev.ID); ok {
			r.Add(v.Idx(w), b)
		}
	}
	v.rf = r
	return r
}

// Rfe returns external reads-from: write and read in different threads
// (init counts as external to every thread).
func (v *View) Rfe() *relation.Rel {
	if v.rfe != nil {
		return v.rfe
	}
	r := v.Empty()
	v.Rf().Pairs(func(a, b int) {
		if v.Events[a].ID.T != v.Events[b].ID.T {
			r.Add(a, b)
		}
	})
	v.rfe = r
	return r
}

// Rfi returns internal (same-thread) reads-from.
func (v *View) Rfi() *relation.Rel {
	if v.rfi != nil {
		return v.rfi
	}
	v.rfi = v.Rf().Minus(v.Rfe())
	return v.rfi
}

// Co returns the coherence order: for each location, init before every
// write, and co-list order between writes.
func (v *View) Co() *relation.Rel {
	if v.co != nil {
		return v.co
	}
	r := v.Empty()
	for l := 0; l < v.numLocs; l++ {
		ws := v.G.co[l]
		for i := 0; i < len(ws); i++ {
			wi := v.Idx(ws[i])
			r.Add(l, wi) // implicit init write first
			for j := i + 1; j < len(ws); j++ {
				r.Add(wi, v.Idx(ws[j]))
			}
		}
	}
	v.co = r
	return r
}

// Fr returns from-read: rf⁻¹ ; co, minus reflexive pairs (an update is a
// co-successor of its own rf source and must not fr-loop onto itself).
// Built directly from each read's rf source and that write's co-suffix,
// with no Inverse/Compose intermediates.
func (v *View) Fr() *relation.Rel {
	if v.fr != nil {
		return v.fr
	}
	fr := v.Empty()
	for b := v.numLocs; b < v.N; b++ {
		ev := &v.Events[b]
		if !ev.Kind.IsRead() {
			continue
		}
		w, ok := v.G.RF(ev.ID)
		if !ok {
			continue
		}
		ws := v.G.co[ev.Loc]
		start := 0
		if !w.IsInit() {
			start = len(ws) // absent from co ⇒ no co-successors
			for i, x := range ws {
				if x == w {
					start = i + 1
					break
				}
			}
		}
		for k := start; k < len(ws); k++ {
			if ws[k] == ev.ID {
				continue // an update never fr-loops onto itself
			}
			fr.Add(b, v.Idx(ws[k]))
		}
	}
	v.fr = fr
	return fr
}

// Eco returns the extended communication order (rf ∪ co ∪ fr)⁺. Memoized
// like the other accessors: models that consult eco several times per check
// (RC11, IMM) pay for the closure once.
func (v *View) Eco() *relation.Rel {
	if v.eco != nil {
		return v.eco
	}
	v.eco = v.Rf().Union(v.Co()).UnionWith(v.Fr()).TransitiveClose()
	return v.eco
}

func (v *View) depRel(pick func(Event) []EvID) *relation.Rel {
	r := v.Empty()
	for b, ev := range v.Events {
		for _, d := range pick(ev) {
			r.Add(v.Idx(d), b)
		}
	}
	return r
}

// DepAddr returns address dependencies (read → dependent event).
func (v *View) DepAddr() *relation.Rel {
	if v.depAddr == nil {
		v.depAddr = v.depRel(func(e Event) []EvID { return e.Addr })
	}
	return v.depAddr
}

// DepData returns data dependencies (read → dependent write).
func (v *View) DepData() *relation.Rel {
	if v.depData == nil {
		v.depData = v.depRel(func(e Event) []EvID { return e.Data })
	}
	return v.depData
}

// DepCtrl returns control dependencies (read → every event po-after a
// branch whose condition depends on the read).
func (v *View) DepCtrl() *relation.Rel {
	if v.depCtrl == nil {
		v.depCtrl = v.depRel(func(e Event) []EvID { return e.Ctrl })
	}
	return v.depCtrl
}

// Deps returns addr ∪ data ∪ ctrl.
func (v *View) Deps() *relation.Rel {
	if v.depAll == nil {
		v.depAll = v.DepAddr().Union(v.DepData()).UnionWith(v.DepCtrl())
	}
	return v.depAll
}

// FilterIdx returns the set of dense indices whose event satisfies pred.
func (v *View) FilterIdx(pred func(Event) bool) []int {
	var out []int
	for i, ev := range v.Events {
		if pred(ev) {
			out = append(out, i)
		}
	}
	return out
}

// SeqFence returns the relation {(a,b) | a po f po b} for fences f of the
// given kinds — the building block of barrier-ordering relations.
func (v *View) SeqFence(kinds ...FenceKind) *relation.Rel {
	want := map[FenceKind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	fences := v.FilterIdx(func(e Event) bool { return e.Kind == KFence && want[e.Fence] })
	r := v.Empty()
	po := v.Po()
	for _, f := range fences {
		for a := 0; a < v.N; a++ {
			if !po.Has(a, f) {
				continue
			}
			for b := 0; b < v.N; b++ {
				if po.Has(f, b) {
					r.Add(a, b)
				}
			}
		}
	}
	return r
}

// Restrict returns r with all pairs removed whose source does not satisfy
// from or whose target does not satisfy to. Either predicate may be nil
// (no constraint).
func (v *View) Restrict(r *relation.Rel, from, to func(Event) bool) *relation.Rel {
	out := v.Empty()
	r.Pairs(func(a, b int) {
		if from != nil && !from(v.Events[a]) {
			return
		}
		if to != nil && !to(v.Events[b]) {
			return
		}
		out.Add(a, b)
	})
	return out
}
