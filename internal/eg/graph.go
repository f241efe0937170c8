package eg

import (
	"fmt"
	"strconv"
	"strings"
)

// Graph is an execution graph under construction or complete. It owns the
// per-thread event sequences, the per-thread reads-from slices and the
// per-location coherence orders. The zero value is unusable; construct
// with NewGraph.
//
// Invariants (checked by CheckWellFormed):
//   - threads[t] holds events with IDs {T: t, I: 0..len-1} in order;
//   - every read/update has an rf edge to a same-location write (or init),
//     and no other event has one;
//   - co[l] lists exactly the non-init writes/updates to location l, in
//     coherence order (the init write is implicitly first);
//   - stamps are unique and reflect addition order.
type Graph struct {
	numLocs int
	threads [][]Event
	// rf[t][i] is the write event (t, i) reads from, or noRF for
	// non-reads and for reads whose source Restrict deleted. It runs
	// beside threads[t], index for index.
	rf   [][]EvID
	co   [][]EvID
	next int // next stamp

	// Copy-on-write state. Clone shares the thread slices (events and rf
	// together) and the co lists between parent and clone; a piece is
	// deep-copied only when a graph that does not own it is about to
	// mutate it. A false flag means "possibly shared: copy before
	// writing"; ownT[t] covers both threads[t] and rf[t].
	ownT  []bool
	ownCo []bool
}

// noRF marks an rf slot with no source: a non-read event, or a read whose
// source Restrict deleted. Its thread is neither a program thread nor
// InitThread, so it never names an event.
var noRF = EvID{T: InitThread - 1}

// NewGraph returns an empty graph for a program with the given number of
// threads and shared locations. Initial writes (value 0) exist implicitly
// for every location and carry stamp 0.
func NewGraph(numThreads, numLocs int) *Graph {
	g := newOwned(numThreads, numLocs)
	g.next = 1
	return g
}

// NumThreads returns the number of program threads.
func (g *Graph) NumThreads() int { return len(g.threads) }

// NumLocs returns the number of shared locations.
func (g *Graph) NumLocs() int { return g.numLocs }

// ThreadLen returns the number of events added for thread t.
func (g *Graph) ThreadLen(t int) int { return len(g.threads[t]) }

// NumEvents returns the number of non-init events in the graph.
func (g *Graph) NumEvents() int {
	n := 0
	for _, th := range g.threads {
		n += len(th)
	}
	return n
}

// Clone returns a copy of g (stamps preserved). The copy is lazy: parent
// and clone share the thread slices (with their rf slices) and the co
// lists until one of them mutates a piece, which is deep-copied at that
// point. Both sides give up ownership — in-place patches like SetEventVal
// and slice appends into shared backing arrays would otherwise leak
// between the two graphs.
// Clone must only be called by a goroutine with exclusive write access to
// g (the explorer clones before forking, never on a shared graph).
func (g *Graph) Clone() *Graph {
	for t := range g.ownT {
		g.ownT[t] = false
	}
	for l := range g.ownCo {
		g.ownCo[l] = false
	}
	c := &Graph{
		numLocs: g.numLocs,
		threads: append(make([][]Event, 0, len(g.threads)), g.threads...),
		rf:      append(make([][]EvID, 0, len(g.rf)), g.rf...),
		co:      append(make([][]EvID, 0, len(g.co)), g.co...),
		next:    g.next,
		ownT:    make([]bool, len(g.threads)),
		ownCo:   make([]bool, len(g.co)),
	}
	return c
}

// ownThread ensures g exclusively owns threads[t] and rf[t] before a
// mutation, copying the shared slices if necessary.
func (g *Graph) ownThread(t int) {
	if g.ownT[t] {
		return
	}
	g.threads[t] = append(make([]Event, 0, len(g.threads[t])+1), g.threads[t]...)
	g.rf[t] = append(make([]EvID, 0, len(g.rf[t])+1), g.rf[t]...)
	g.ownT[t] = true
}

// ownCoLoc ensures g exclusively owns co[l] before a mutation.
func (g *Graph) ownCoLoc(l Loc) {
	if g.ownCo[l] {
		return
	}
	g.co[l] = append(make([]EvID, 0, len(g.co[l])+1), g.co[l]...)
	g.ownCo[l] = true
}

// Add appends ev to its thread, assigning the next stamp. The event's
// ID.I must equal the thread's current length.
func (g *Graph) Add(ev Event) {
	if ev.ID.IsInit() {
		panic("eg: cannot add init events")
	}
	t := ev.ID.T
	if t < 0 || t >= len(g.threads) {
		panic(fmt.Sprintf("eg: thread %d out of range", t))
	}
	if ev.ID.I != len(g.threads[t]) {
		panic(fmt.Sprintf("eg: event %v added out of order (thread has %d events)", ev.ID, len(g.threads[t])))
	}
	ev.Stamp = g.next
	g.next++
	g.ownThread(t)
	g.threads[t] = append(g.threads[t], ev)
	g.rf[t] = append(g.rf[t], noRF)
}

// Has reports whether the event id is present (init events always are).
func (g *Graph) Has(id EvID) bool {
	if id.IsInit() {
		return id.I >= 0 && id.I < g.numLocs
	}
	return id.T >= 0 && id.T < len(g.threads) && id.I >= 0 && id.I < len(g.threads[id.T])
}

// Event returns the event with the given id. Init IDs yield a synthetic
// KInit event with stamp 0.
func (g *Graph) Event(id EvID) Event {
	if id.IsInit() {
		if id.I < 0 || id.I >= g.numLocs {
			panic(fmt.Sprintf("eg: init event for unknown location %d", id.I))
		}
		return Event{ID: id, Kind: KInit, Loc: Loc(id.I)}
	}
	return g.threads[id.T][id.I]
}

// EventRef returns a pointer to the non-init event id, for reading it in
// place. The event must not be modified through the pointer, and the
// pointer goes stale at the next mutation of thread id.T.
func (g *Graph) EventRef(id EvID) *Event { return &g.threads[id.T][id.I] }

// SetRF records that read r reads from write w. Both must be present,
// r must be a read/update, w a write/update/init, and locations must match.
func (g *Graph) SetRF(r, w EvID) {
	re := g.Event(r)
	we := g.Event(w)
	if !re.Kind.IsRead() {
		panic(fmt.Sprintf("eg: SetRF source %v is not a read", r))
	}
	if !we.Kind.IsWrite() {
		panic(fmt.Sprintf("eg: SetRF target %v is not a write", w))
	}
	if re.Loc != we.Loc {
		panic(fmt.Sprintf("eg: SetRF location mismatch %v vs %v", re, we))
	}
	g.ownThread(r.T)
	g.rf[r.T][r.I] = w
}

// ReadersOf returns the reads whose rf source is w, in (thread, index)
// order.
func (g *Graph) ReadersOf(w EvID) []EvID {
	var out []EvID
	for t, srcs := range g.rf {
		for i, src := range srcs {
			if src == w {
				out = append(out, EvID{T: t, I: i})
			}
		}
	}
	return out
}

// RF returns the write that read r reads from.
func (g *Graph) RF(r EvID) (EvID, bool) {
	if r.T < 0 || r.T >= len(g.rf) || r.I < 0 || r.I >= len(g.rf[r.T]) {
		return EvID{}, false
	}
	if w := g.rf[r.T][r.I]; w != noRF {
		return w, true
	}
	return EvID{}, false
}

// CoLoc returns the coherence order of location l, excluding the implicit
// init write. The returned slice is owned by the graph.
func (g *Graph) CoLoc(l Loc) []EvID { return g.co[l] }

// CoInsert places write w at position pos in location l's coherence order
// (0 = immediately after init). The write event must already be in the
// graph.
func (g *Graph) CoInsert(l Loc, pos int, w EvID) {
	g.ownCoLoc(l)
	ws := g.co[l]
	if pos < 0 || pos > len(ws) {
		panic(fmt.Sprintf("eg: co position %d out of range [0,%d]", pos, len(ws)))
	}
	ws = append(ws, EvID{})
	copy(ws[pos+1:], ws[pos:])
	ws[pos] = w
	g.co[l] = ws
}

// CoIndex returns the position of write w in location l's coherence order,
// or -1 if absent. Init writes have index -1 by convention (they precede
// position 0).
func (g *Graph) CoIndex(l Loc, w EvID) int {
	if w.IsInit() {
		return -1
	}
	for i, x := range g.co[l] {
		if x == w {
			return i
		}
	}
	return -1
}

// WritesTo returns all writes to location l in coherence order, including
// the init write first. The slice is fresh.
func (g *Graph) WritesTo(l Loc) []EvID {
	out := make([]EvID, 0, len(g.co[l])+1)
	out = append(out, InitID(l))
	out = append(out, g.co[l]...)
	return out
}

// CoMax returns the coherence-maximal write to location l (init if no
// other write exists).
func (g *Graph) CoMax(l Loc) EvID {
	if len(g.co[l]) == 0 {
		return InitID(l)
	}
	return g.co[l][len(g.co[l])-1]
}

// ValueOf returns the value written by the given write event (0 for init).
func (g *Graph) ValueOf(w EvID) int64 {
	if w.IsInit() {
		return 0
	}
	return g.threads[w.T][w.I].Val
}

// ReadValue returns the value observed by read r via its rf edge.
func (g *Graph) ReadValue(r EvID) (int64, bool) {
	w, ok := g.RF(r)
	if !ok {
		return 0, false
	}
	return g.ValueOf(w), true
}

// SetEventVal patches the written value of a write/update event. Used by
// replay repair after a backward revisit rebinds a read that feeds the
// event's data.
func (g *Graph) SetEventVal(id EvID, val int64) {
	ev := g.Event(id)
	if !ev.Kind.IsWrite() || ev.Kind == KInit {
		panic(fmt.Sprintf("eg: SetEventVal on non-write %v", id))
	}
	g.ownThread(id.T)
	g.threads[id.T][id.I].Val = val
}

// SetEventKind rewrites the kind of an event (KRead ↔ KUpdate, for CAS
// events whose success flips when their rf source changes). Coherence
// membership must be adjusted by the caller (CoInsert/CoRemove).
func (g *Graph) SetEventKind(id EvID, kind Kind) {
	if kind != KRead && kind != KUpdate {
		panic(fmt.Sprintf("eg: SetEventKind to unsupported kind %v", kind))
	}
	g.ownThread(id.T)
	g.threads[id.T][id.I].Kind = kind
}

// CoRemove deletes write w from location l's coherence order.
func (g *Graph) CoRemove(l Loc, w EvID) {
	i := g.CoIndex(l, w)
	if i < 0 {
		panic(fmt.Sprintf("eg: CoRemove of absent %v", w))
	}
	g.ownCoLoc(l)
	g.co[l] = append(g.co[l][:i], g.co[l][i+1:]...)
}

// newOwned returns an empty graph shell whose every piece is exclusively
// owned — the construction target for operations that build fresh deep
// structures (Restrict, RenameThreads).
func newOwned(numThreads, numLocs int) *Graph {
	g := &Graph{
		numLocs: numLocs,
		threads: make([][]Event, numThreads),
		rf:      make([][]EvID, numThreads),
		co:      make([][]EvID, numLocs),
		ownT:    make([]bool, numThreads),
		ownCo:   make([]bool, numLocs),
	}
	for t := range g.ownT {
		g.ownT[t] = true
	}
	for l := range g.ownCo {
		g.ownCo[l] = true
	}
	return g
}

// ForEach calls fn for every non-init event in (thread, index) order. The
// event is read in place: fn must not modify it or keep the pointer past
// the next mutation of g.
func (g *Graph) ForEach(fn func(*Event)) {
	for _, th := range g.threads {
		for i := range th {
			fn(&th[i])
		}
	}
}

// Restrict returns a new graph holding the first cut[t] events of each
// thread t (cut[t] ≤ ThreadLen(t)). rf edges whose reader is kept but
// whose writer was deleted are dropped (the caller re-binds them);
// coherence orders are filtered. Stamps of surviving events are
// preserved, and the stamp counter stays at its high-water mark so newly
// added events are stamped after every surviving event.
func (g *Graph) Restrict(cut []int) *Graph {
	c := newOwned(len(g.threads), g.numLocs)
	c.next = g.next
	for t, th := range g.threads {
		if cut[t] > len(th) { // th[:cut[t]] would silently reach into spare capacity
			panic(fmt.Sprintf("eg: Restrict cut %d beyond thread %d's %d events", cut[t], t, len(th)))
		}
		c.threads[t] = append([]Event(nil), th[:cut[t]]...)
		c.rf[t] = append([]EvID(nil), g.rf[t][:cut[t]]...)
	}
	for _, srcs := range c.rf {
		for i, w := range srcs {
			if w != noRF && !c.Has(w) {
				srcs[i] = noRF
			}
		}
	}
	for l, ws := range g.co {
		for _, w := range ws {
			if c.Has(w) {
				c.co[l] = append(c.co[l], w)
			}
		}
	}
	return c
}

// Key returns a canonical string identifying the execution: thread event
// lists with written values, rf edges and coherence orders. Two graphs
// over the same program represent the same execution iff their keys match.
// This is the exploration memo's hash input — the hottest path in the
// checker — so it is built with raw integer appends rather than fmt.
func (g *Graph) Key() string {
	b := make([]byte, 0, 16*g.NumEvents()+16)
	appendID := func(id EvID) {
		if id.IsInit() {
			b = append(b, 'i')
			b = strconv.AppendInt(b, int64(id.I), 10)
			return
		}
		b = strconv.AppendInt(b, int64(id.T), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(id.I), 10)
	}
	for t, th := range g.threads {
		b = append(b, 'T')
		b = strconv.AppendInt(b, int64(t), 10)
		b = append(b, '[')
		for _, ev := range th {
			switch ev.Kind {
			case KRead:
				b = append(b, 'R')
				b = strconv.AppendInt(b, int64(ev.Loc), 10)
				b = append(b, '<')
				src, _ := g.RF(ev.ID)
				appendID(src)
			case KUpdate:
				b = append(b, 'U')
				b = strconv.AppendInt(b, int64(ev.Loc), 10)
				b = append(b, '=')
				b = strconv.AppendInt(b, ev.Val, 10)
				b = append(b, '<')
				src, _ := g.RF(ev.ID)
				appendID(src)
			case KWrite:
				b = append(b, 'W')
				b = strconv.AppendInt(b, int64(ev.Loc), 10)
				b = append(b, '=')
				b = strconv.AppendInt(b, ev.Val, 10)
			case KFence:
				b = append(b, 'F')
				b = strconv.AppendInt(b, int64(ev.Fence), 10)
			}
			b = append(b, ';')
		}
		b = append(b, ']')
	}
	for l := 0; l < g.numLocs; l++ {
		if len(g.co[l]) > 1 {
			b = append(b, 'c')
			b = strconv.AppendInt(b, int64(l), 10)
			b = append(b, ':')
			for _, w := range g.co[l] {
				appendID(w)
				b = append(b, ';')
			}
		}
	}
	return string(b)
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	return g.StringNamed(func(l Loc) string { return fmt.Sprintf("x%d", l) })
}

// StringNamed renders the graph like String but with source-level
// location names (witness output in the CLI and the analyses).
func (g *Graph) StringNamed(locName func(Loc) string) string {
	var sb strings.Builder
	for t, th := range g.threads {
		fmt.Fprintf(&sb, "thread %d:\n", t)
		for _, ev := range th {
			sb.WriteString("  ")
			sb.WriteString(ev.StringNamed(locName))
			if ev.Kind.IsRead() {
				if w, ok := g.RF(ev.ID); ok {
					src := w.String()
					if w.IsInit() {
						src = "init[" + locName(Loc(w.I)) + "]"
					}
					fmt.Fprintf(&sb, "  [rf: %s = %d]", src, g.ValueOf(w))
				} else {
					sb.WriteString("  [rf: ?]")
				}
			}
			sb.WriteByte('\n')
		}
	}
	for l := 0; l < g.numLocs; l++ {
		if len(g.co[l]) > 0 {
			fmt.Fprintf(&sb, "co %s: init", locName(Loc(l)))
			for _, w := range g.co[l] {
				fmt.Fprintf(&sb, " -> %v", w)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// CheckWellFormed verifies the graph invariants, returning a descriptive
// error for the first violation found. Intended for tests and debug mode.
func (g *Graph) CheckWellFormed() error {
	// co[l] must list exactly the writes to l: no duplicates and only
	// present writes to l (checked here), and every such write (checked
	// per event below).
	inCo := map[EvID]bool{}
	for l := 0; l < g.numLocs; l++ {
		for _, w := range g.co[l] {
			if inCo[w] {
				return fmt.Errorf("write %v appears twice in co[%d]", w, l)
			}
			inCo[w] = true
			if !g.Has(w) {
				return fmt.Errorf("co[%d] references absent %v", l, w)
			}
			we := g.Event(w)
			if !we.Kind.IsWrite() || we.Loc != Loc(l) {
				return fmt.Errorf("co[%d] contains incompatible %v", l, we)
			}
		}
	}
	seen := map[int]EvID{0: {T: InitThread, I: 0}}
	for t, th := range g.threads {
		if len(g.rf[t]) != len(th) {
			return fmt.Errorf("thread %d has %d events but %d rf slots", t, len(th), len(g.rf[t]))
		}
		for i, ev := range th {
			if ev.ID.T != t || ev.ID.I != i {
				return fmt.Errorf("event at thread %d pos %d has ID %v", t, i, ev.ID)
			}
			if prev, dup := seen[ev.Stamp]; dup {
				return fmt.Errorf("duplicate stamp %d on %v and %v", ev.Stamp, prev, ev.ID)
			}
			seen[ev.Stamp] = ev.ID
			if ev.Kind.IsWrite() && !inCo[ev.ID] {
				// Writes are placed in co the moment they are added.
				return fmt.Errorf("write %v missing from co[%d]", ev.ID, ev.Loc)
			}
			if !ev.Kind.IsRead() && g.rf[t][i] != noRF {
				return fmt.Errorf("non-read %v has an rf edge to %v", ev.ID, g.rf[t][i])
			}
			if ev.Kind.IsRead() {
				w, ok := g.RF(ev.ID)
				if !ok {
					return fmt.Errorf("read %v has no rf edge", ev.ID)
				}
				if !g.Has(w) {
					return fmt.Errorf("read %v reads from absent %v", ev.ID, w)
				}
				we := g.Event(w)
				if !we.Kind.IsWrite() || we.Loc != ev.Loc {
					return fmt.Errorf("read %v reads from incompatible %v", ev.ID, we)
				}
			}
			for _, dep := range [][]EvID{ev.Addr, ev.Data, ev.Ctrl} {
				for _, d := range dep {
					if d.T != t || d.I >= i {
						return fmt.Errorf("event %v depends on non-po-earlier %v", ev.ID, d)
					}
					if !g.Event(d).Kind.IsRead() {
						return fmt.Errorf("event %v depends on non-read %v", ev.ID, d)
					}
				}
			}
		}
	}
	return nil
}
