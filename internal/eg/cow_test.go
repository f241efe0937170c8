package eg

import (
	"testing"
)

// snapshotKeyAndWF returns the graph's canonical key after checking
// well-formedness — the observable identity COW must preserve.
func snapshotKeyAndWF(t *testing.T, g *Graph) string {
	t.Helper()
	if err := g.CheckWellFormed(); err != nil {
		t.Fatalf("well-formedness: %v", err)
	}
	return g.Key()
}

// TestCloneCOWIsolation exercises every mutator against a clone and checks
// the parent is untouched (and vice versa): Clone shares structure, so any
// missing copy-on-write hook shows up as cross-graph corruption here.
func TestCloneCOWIsolation(t *testing.T) {
	const x, y = Loc(0), Loc(1)

	t.Run("AddDoesNotLeakToParent", func(t *testing.T) {
		g := buildMP(t)
		key := snapshotKeyAndWF(t, g)
		c := g.Clone()
		w2 := Event{ID: EvID{T: 0, I: 2}, Kind: KWrite, Loc: x, Val: 2}
		c.Add(w2)
		c.CoInsert(x, 1, w2.ID)
		if got := snapshotKeyAndWF(t, g); got != key {
			t.Fatalf("parent changed by clone's Add:\n%s\nvs\n%s", got, key)
		}
		if c.NumEvents() != g.NumEvents()+1 {
			t.Fatalf("clone did not gain the event")
		}
	})

	t.Run("SiblingAppendsDoNotCollide", func(t *testing.T) {
		// Two clones of the same parent both append to the same thread:
		// without copy-on-write of the shared backing array, the second
		// append would overwrite the first clone's event.
		g := buildMP(t)
		c1, c2 := g.Clone(), g.Clone()
		c1.Add(Event{ID: EvID{T: 0, I: 2}, Kind: KWrite, Loc: x, Val: 11})
		c1.CoInsert(x, 1, EvID{T: 0, I: 2})
		c2.Add(Event{ID: EvID{T: 0, I: 2}, Kind: KWrite, Loc: y, Val: 22})
		c2.CoInsert(y, 1, EvID{T: 0, I: 2})
		e1 := c1.Event(EvID{T: 0, I: 2})
		e2 := c2.Event(EvID{T: 0, I: 2})
		if e1.Loc != x || e1.Val != 11 {
			t.Fatalf("clone 1's event stomped: %v", e1)
		}
		if e2.Loc != y || e2.Val != 22 {
			t.Fatalf("clone 2's event stomped: %v", e2)
		}
		if err := c1.CheckWellFormed(); err != nil {
			t.Fatalf("clone 1: %v", err)
		}
		if err := c2.CheckWellFormed(); err != nil {
			t.Fatalf("clone 2: %v", err)
		}
	})

	t.Run("SetRFDoesNotLeak", func(t *testing.T) {
		g := buildMP(t)
		key := snapshotKeyAndWF(t, g)
		c := g.Clone()
		c.SetRF(EvID{T: 1, I: 1}, EvID{T: 0, I: 0}) // rebind rx from init to wx
		if got := snapshotKeyAndWF(t, g); got != key {
			t.Fatalf("parent rf changed by clone's SetRF")
		}
		if w, _ := c.RF(EvID{T: 1, I: 1}); w != (EvID{T: 0, I: 0}) {
			t.Fatalf("clone rf not updated: %v", w)
		}
		if w, _ := g.RF(EvID{T: 1, I: 1}); w != InitID(x) {
			t.Fatalf("parent rf changed: %v", w)
		}
	})

	t.Run("SetEventValDoesNotLeak", func(t *testing.T) {
		// In-place element patch: the sharpest COW hazard, since it does
		// not change slice length.
		g := buildMP(t)
		c := g.Clone()
		c.SetEventVal(EvID{T: 0, I: 0}, 99)
		if got := g.Event(EvID{T: 0, I: 0}).Val; got != 1 {
			t.Fatalf("parent value patched through shared array: %d", got)
		}
		if got := c.Event(EvID{T: 0, I: 0}).Val; got != 99 {
			t.Fatalf("clone value not patched: %d", got)
		}
	})

	t.Run("SetEventKindDoesNotLeak", func(t *testing.T) {
		g := NewGraph(1, 1)
		u := Event{ID: EvID{T: 0, I: 0}, Kind: KUpdate, Loc: 0, Val: 1}
		g.Add(u)
		g.CoInsert(0, 0, u.ID)
		g.SetRF(u.ID, InitID(0))
		c := g.Clone()
		c.SetEventKind(u.ID, KRead)
		c.CoRemove(0, u.ID)
		if g.Event(u.ID).Kind != KUpdate {
			t.Fatalf("parent kind rewritten through shared array")
		}
		if c.Event(u.ID).Kind != KRead {
			t.Fatalf("clone kind not rewritten")
		}
		if g.CoIndex(0, u.ID) != 0 {
			t.Fatalf("parent co changed by clone's CoRemove")
		}
	})

	t.Run("CoInsertAndRemoveDoNotLeak", func(t *testing.T) {
		g := buildMP(t)
		key := snapshotKeyAndWF(t, g)
		c := g.Clone()
		c.CoRemove(y, EvID{T: 0, I: 1})
		c.SetEventKind(EvID{T: 1, I: 0}, KRead) // keep c ill-formed-free irrelevant; just parent check
		if got := snapshotKeyAndWF(t, g); got != key {
			t.Fatalf("parent co changed by clone's CoRemove")
		}
	})

	t.Run("ParentMutationDoesNotLeakToClone", func(t *testing.T) {
		// Ownership is symmetric: the parent also loses it at Clone time.
		g := buildMP(t)
		c := g.Clone()
		key := snapshotKeyAndWF(t, c)
		g.SetEventVal(EvID{T: 0, I: 1}, 77)
		g.Add(Event{ID: EvID{T: 1, I: 2}, Kind: KRead, Loc: x})
		g.SetRF(EvID{T: 1, I: 2}, InitID(x))
		if got := snapshotKeyAndWF(t, c); got != key {
			t.Fatalf("clone changed by parent mutation")
		}
	})

	t.Run("ChainedClones", func(t *testing.T) {
		// Clone of a clone that never mutated: all three share structure;
		// mutating the grandchild must leave both ancestors intact.
		g := buildMP(t)
		keyG := snapshotKeyAndWF(t, g)
		c := g.Clone()
		gc := c.Clone()
		gc.SetEventVal(EvID{T: 0, I: 0}, 42)
		if snapshotKeyAndWF(t, g) != keyG || snapshotKeyAndWF(t, c) != keyG {
			t.Fatalf("ancestor changed by grandchild mutation")
		}
		if gc.Event(EvID{T: 0, I: 0}).Val != 42 {
			t.Fatalf("grandchild mutation lost")
		}
	})

	t.Run("RestrictOfSharedGraph", func(t *testing.T) {
		// Restrict deep-copies and must not disturb a graph whose pieces
		// are shared with clones (the revisit path does exactly this).
		g := buildMP(t)
		c := g.Clone()
		key := snapshotKeyAndWF(t, g)
		sub := g.Restrict([]int{2, 0})
		sub.Add(Event{ID: EvID{T: 1, I: 0}, Kind: KRead, Loc: x})
		sub.SetRF(EvID{T: 1, I: 0}, EvID{T: 0, I: 0})
		if snapshotKeyAndWF(t, g) != key || snapshotKeyAndWF(t, c) != key {
			t.Fatalf("Restrict or mutation of restriction disturbed the shared graph")
		}
	})
}

// TestCloneEquivalentToDeepCopy drives identical mutation sequences through
// a COW clone and a manually deep-copied graph and checks the keys agree.
func TestCloneEquivalentToDeepCopy(t *testing.T) {
	const x = Loc(0)
	g := buildMP(t)

	deep := g.Restrict(fullCut(g)) // Restrict is a deep copy
	cow := g.Clone()

	mutate := func(m *Graph) {
		m.SetEventVal(EvID{T: 0, I: 0}, 5)
		m.Add(Event{ID: EvID{T: 0, I: 2}, Kind: KWrite, Loc: x, Val: 6})
		m.CoInsert(x, 0, EvID{T: 0, I: 2})
		m.SetRF(EvID{T: 1, I: 1}, EvID{T: 0, I: 2})
	}
	mutate(deep)
	mutate(cow)
	if deep.Key() != cow.Key() {
		t.Fatalf("COW clone diverged from deep copy:\n%s\nvs\n%s", cow.Key(), deep.Key())
	}
	if err := cow.CheckWellFormed(); err != nil {
		t.Fatalf("COW clone ill-formed: %v", err)
	}
}

// TestRFSlices covers rf kept as per-thread slices beside the events:
// copy-on-write isolation, restriction, renaming, reader order and the
// well-formedness check on the slot of a non-read.
func TestRFSlices(t *testing.T) {
	const x, y = Loc(0), Loc(1)
	wx, wy := EvID{T: 0, I: 0}, EvID{T: 0, I: 1}
	ry, rx := EvID{T: 1, I: 0}, EvID{T: 1, I: 1}

	t.Run("SetRFOnCloneLeavesParent", func(t *testing.T) {
		g := buildMP(t)
		c := g.Clone()
		c.SetRF(rx, wx)
		c.SetRF(ry, InitID(y))
		if w, _ := g.RF(rx); w != InitID(x) {
			t.Fatalf("parent rx reads %v, want init", w)
		}
		if w, _ := g.RF(ry); w != wy {
			t.Fatalf("parent ry reads %v, want %v", w, wy)
		}
		if rs := g.ReadersOf(wx); len(rs) != 0 {
			t.Fatalf("parent gained readers of %v: %v", wx, rs)
		}
		if w, _ := c.RF(rx); w != wx {
			t.Fatalf("clone rx reads %v, want %v", w, wx)
		}
	})

	t.Run("RestrictDropsEdgesToDeletedWrites", func(t *testing.T) {
		g := buildMP(t)
		g.SetRF(rx, wx)
		// Keep wx and thread 1, drop wy: ry loses its source, rx keeps it.
		sub := g.Restrict([]int{1, 2})
		if _, ok := sub.RF(ry); ok {
			t.Fatal("ry still reads the deleted wy")
		}
		if w, ok := sub.RF(rx); !ok || w != wx {
			t.Fatalf("rx reads %v (%v), want %v", w, ok, wx)
		}
		if err := sub.CheckWellFormed(); err == nil {
			t.Fatal("a read without rf must be ill-formed until rebound")
		}
		sub.SetRF(ry, InitID(y))
		if err := sub.CheckWellFormed(); err != nil {
			t.Fatal(err)
		}
		if w, _ := g.RF(ry); w != wy {
			t.Fatalf("Restrict changed the source graph: ry reads %v", w)
		}
	})

	t.Run("RenameThreadsPermutesRF", func(t *testing.T) {
		g := buildMP(t)
		h := g.RenameThreads([]int{1, 0})
		if w, ok := h.RF(EvID{T: 0, I: 0}); !ok || w != (EvID{T: 1, I: 1}) {
			t.Fatalf("renamed ry reads %v (%v), want t1:1", w, ok)
		}
		if w, ok := h.RF(EvID{T: 0, I: 1}); !ok || w != InitID(x) {
			t.Fatalf("renamed rx reads %v (%v), want init", w, ok)
		}
		if _, ok := h.RF(EvID{T: 1, I: 0}); ok {
			t.Fatal("renamed write has an rf edge")
		}
		if err := h.CheckWellFormed(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ReadersOfInThreadIndexOrder", func(t *testing.T) {
		g := NewGraph(3, 1)
		w := EvID{T: 1, I: 0}
		g.Add(Event{ID: w, Kind: KWrite, Loc: 0, Val: 1})
		g.CoInsert(0, 0, w)
		// Bind readers in an order unlike (T, I): the answer is sorted.
		for _, r := range []EvID{{T: 2, I: 0}, {T: 0, I: 0}, {T: 2, I: 1}, {T: 0, I: 1}, {T: 1, I: 1}} {
			g.Add(Event{ID: r, Kind: KRead, Loc: 0})
		}
		for _, r := range []EvID{{T: 2, I: 1}, {T: 0, I: 1}, {T: 1, I: 1}, {T: 0, I: 0}, {T: 2, I: 0}} {
			g.SetRF(r, w)
		}
		g.SetRF(EvID{T: 2, I: 0}, InitID(0)) // not a reader of w after all
		want := []EvID{{T: 0, I: 0}, {T: 0, I: 1}, {T: 1, I: 1}, {T: 2, I: 1}}
		got := g.ReadersOf(w)
		if len(got) != len(want) {
			t.Fatalf("ReadersOf = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ReadersOf = %v, want %v", got, want)
			}
		}
	})

	t.Run("CheckWellFormedRejectsRFOnNonRead", func(t *testing.T) {
		g := buildMP(t)
		g.rf[wy.T][wy.I] = wx
		if err := g.CheckWellFormed(); err == nil {
			t.Fatal("an rf entry on a write must be ill-formed")
		}
	})
}
