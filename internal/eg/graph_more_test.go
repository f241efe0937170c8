package eg

import (
	"strings"
	"testing"
)

// TestGraphAccessors covers the small graph helpers on a hand-built
// two-thread graph.
func TestGraphAccessors(t *testing.T) {
	g := NewGraph(2, 1)
	w := EvID{T: 0, I: 0}
	g.Add(Event{ID: w, Kind: KWrite, Loc: 0, Val: 1})
	g.CoInsert(0, 0, w)
	w2 := EvID{T: 0, I: 1}
	g.Add(Event{ID: w2, Kind: KWrite, Loc: 0, Val: 2})
	g.CoInsert(0, 1, w2)
	r := EvID{T: 1, I: 0}
	g.Add(Event{ID: r, Kind: KRead, Loc: 0, Val: 1})
	g.SetRF(r, w)

	if rs := g.ReadersOf(w); len(rs) != 1 || rs[0] != r {
		t.Errorf("ReadersOf = %v", rs)
	}
	if got := g.CoMax(0); got != w2 {
		t.Errorf("CoMax = %v, want %v", got, w2)
	}

	// SetEventVal rewrites a write's value (repair path).
	g.SetEventVal(w2, 9)
	if g.ValueOf(w2) != 9 {
		t.Errorf("SetEventVal not applied: %d", g.ValueOf(w2))
	}
	// SetEventKind demotes an update to a read (CAS failure flip path).
	g.SetEventKind(r, KRead)
	if g.Event(r).Kind != KRead {
		t.Error("SetEventKind lost the kind")
	}

	// CoRemove deletes a coherence entry and panics on absentees.
	g.CoRemove(0, w2)
	if len(g.CoLoc(0)) != 1 {
		t.Errorf("CoRemove left %v", g.CoLoc(0))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("CoRemove of an absent write must panic")
			}
		}()
		g.CoRemove(0, w2)
	}()
}

// TestModePredicates pins the acquire/release lattice.
func TestModePredicates(t *testing.T) {
	cases := []struct {
		m        Mode
		acq, rel bool
	}{
		{ModePlain, false, false},
		{ModeRlx, false, false},
		{ModeAcq, true, false},
		{ModeRel, false, true},
		{ModeAcqRel, true, true},
		{ModeSC, true, true},
	}
	for _, c := range cases {
		if c.m.Acquire() != c.acq || c.m.Release() != c.rel {
			t.Errorf("%v: Acquire=%v Release=%v, want %v %v",
				c.m, c.m.Acquire(), c.m.Release(), c.acq, c.rel)
		}
	}
}

// TestStringers covers the human-readable forms used in witnesses.
func TestStringers(t *testing.T) {
	if s := (EvID{T: 2, I: 3}).String(); s != "t2:3" {
		t.Errorf("EvID string = %q", s)
	}
	if !InitID(1).IsInit() {
		t.Error("init id must be init")
	}
	for _, k := range []Kind{KRead, KWrite, KUpdate, KFence} {
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("Kind %d has no name", k)
		}
	}
	for _, f := range []FenceKind{FenceFull, FenceLW, FenceLD} {
		if f.String() == "" || strings.HasPrefix(f.String(), "FenceKind(") {
			t.Errorf("FenceKind %d has no name", f)
		}
	}
	for _, m := range []Mode{ModePlain, ModeRlx, ModeAcq, ModeRel, ModeAcqRel, ModeSC} {
		if strings.HasPrefix(m.String(), "Mode(") {
			t.Errorf("Mode %d has no name", m)
		}
	}
	ev := Event{ID: EvID{T: 0, I: 0}, Kind: KUpdate, Loc: 1, Val: 4, Excl: true, Mode: ModeSC}
	if ev.String() == "" {
		t.Error("event string empty")
	}
}
