package interp

import (
	"testing"

	"hmc/internal/eg"
	"hmc/internal/prog"
)

// buildChain constructs a graph for: T0: r = load x; store y = r+1,
// with r bound to `from`, and returns it with the store's stale value.
func buildChain(t *testing.T, from eg.EvID, staleVal int64) (*prog.Program, *eg.Graph) {
	t.Helper()
	b := prog.NewBuilder("chain")
	x, y := b.Loc("x"), b.Loc("y")
	_ = x
	t0 := b.Thread()
	r := t0.Load(x)
	t0.Store(y, prog.Add(prog.R(r), prog.Const(1)))
	t1 := b.Thread()
	t1.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(2, 2)
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 0}, Kind: eg.KRead, Loc: 0})
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 1}, Kind: eg.KWrite, Loc: 1, Val: staleVal,
		Data: []eg.EvID{{T: 0, I: 0}}})
	g.CoInsert(1, 0, eg.EvID{T: 0, I: 1})
	g.Add(eg.Event{ID: eg.EvID{T: 1, I: 0}, Kind: eg.KWrite, Loc: 0, Val: 5})
	g.CoInsert(0, 0, eg.EvID{T: 1, I: 0})
	g.SetRF(eg.EvID{T: 0, I: 0}, from)
	return p, g
}

func TestRepairPatchesStaleValue(t *testing.T) {
	// The read was rebound to T1's write (value 5) but the dependent store
	// still carries the value computed from init (0+1): repair fixes it.
	p, g := buildChain(t, eg.EvID{T: 1, I: 0}, 1)
	changed, ok := Repair(p, g, 0, 0)
	if !ok {
		t.Fatal("repair diverged on a pure value change")
	}
	if !changed {
		t.Fatal("repair must report the patch")
	}
	if got := g.Event(eg.EvID{T: 0, I: 1}).Val; got != 6 {
		t.Fatalf("patched value = %d, want 6", got)
	}
	// Second pass: fixpoint.
	changed, ok = Repair(p, g, 0, 0)
	if !ok || changed {
		t.Fatalf("second pass: changed=%v ok=%v, want false,true", changed, ok)
	}
}

func TestRepairAllConverges(t *testing.T) {
	p, g := buildChain(t, eg.EvID{T: 1, I: 0}, 1)
	if !RepairAll(p, g, 0) {
		t.Fatal("RepairAll failed on a convergent graph")
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairFromReplaysDirtyThreads(t *testing.T) {
	// T0: r = load x; store y = r+1. T1: store x = 5. T2: r2 = load y;
	// store z = r2. Rebinding r to T1's write patches y, which dirties
	// T2 (y's reader) in the same sweep; T1 reads nothing and is never
	// replayed. The second sweep finds nothing dirty and ends repair.
	b := prog.NewBuilder("dirty")
	x, y, z := b.Loc("x"), b.Loc("y"), b.Loc("z")
	t0 := b.Thread()
	r := t0.Load(x)
	t0.Store(y, prog.Add(prog.R(r), prog.Const(1)))
	t1 := b.Thread()
	t1.Store(x, prog.Const(5))
	t2 := b.Thread()
	r2 := t2.Load(y)
	t2.Store(z, prog.R(r2))
	p := b.MustBuild()

	g := eg.NewGraph(3, 3)
	rd, wy := eg.EvID{T: 0, I: 0}, eg.EvID{T: 0, I: 1}
	wx := eg.EvID{T: 1, I: 0}
	rd2, wz := eg.EvID{T: 2, I: 0}, eg.EvID{T: 2, I: 1}
	g.Add(eg.Event{ID: rd, Kind: eg.KRead, Loc: x})
	g.SetRF(rd, eg.InitID(x))
	g.Add(eg.Event{ID: wy, Kind: eg.KWrite, Loc: y, Val: 1, Data: []eg.EvID{rd}})
	g.CoInsert(y, 0, wy)
	g.Add(eg.Event{ID: wx, Kind: eg.KWrite, Loc: x, Val: 5})
	g.CoInsert(x, 0, wx)
	g.Add(eg.Event{ID: rd2, Kind: eg.KRead, Loc: y})
	g.SetRF(rd2, wy)
	g.Add(eg.Event{ID: wz, Kind: eg.KWrite, Loc: z, Val: 1, Data: []eg.EvID{rd2}})
	g.CoInsert(z, 0, wz)
	g.SetRF(rd, wx) // the rebind

	rs, ok := RepairFrom(p, g, 0, rd.T)
	if !ok {
		t.Fatal("repair failed on a convergent graph")
	}
	if g.Event(wy).Val != 6 || g.Event(wz).Val != 6 {
		t.Fatalf("patched y=%d z=%d, want 6 and 6", g.Event(wy).Val, g.Event(wz).Val)
	}
	if want := (RepairStats{Replays: 2, SkippedClean: 4}); rs != want {
		t.Fatalf("repair stats %+v, want %+v (two sweeps of three slots)", rs, want)
	}
}

func TestRepairFlipsCASToRead(t *testing.T) {
	// T0: CAS(x, 0 -> 9). The graph has it as a *successful* update
	// reading init; rebinding it to a write of 5 must demote it to a
	// plain read and pull it out of coherence.
	b := prog.NewBuilder("casflip")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.CAS(x, prog.Const(0), prog.Const(9))
	t1 := b.Thread()
	t1.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(2, 1)
	cas := eg.EvID{T: 0, I: 0}
	g.Add(eg.Event{ID: cas, Kind: eg.KUpdate, Loc: 0, Val: 9, Excl: true})
	g.CoInsert(0, 0, cas)
	g.SetRF(cas, eg.InitID(0))
	w := eg.EvID{T: 1, I: 0}
	g.Add(eg.Event{ID: w, Kind: eg.KWrite, Loc: 0, Val: 5})
	g.CoInsert(0, 1, w)
	// Rebind: the CAS now reads 5 ≠ 0 → must fail.
	g.SetRF(cas, w)

	changed, ok := Repair(p, g, 0, 0)
	if !ok || !changed {
		t.Fatalf("repair: changed=%v ok=%v", changed, ok)
	}
	if got := g.Event(cas).Kind; got != eg.KRead {
		t.Fatalf("CAS kind = %v, want KRead", got)
	}
	if g.CoIndex(0, cas) != -1 {
		t.Fatal("demoted CAS still in coherence order")
	}
}

func TestRepairPromotesCASToUpdate(t *testing.T) {
	// The mirror image: a failed CAS whose rebound source now matches the
	// expected value becomes a successful update, co-adjacent to it.
	b := prog.NewBuilder("caspromote")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.CAS(x, prog.Const(5), prog.Const(9))
	t1 := b.Thread()
	t1.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(2, 1)
	cas := eg.EvID{T: 0, I: 0}
	w := eg.EvID{T: 1, I: 0}
	g.Add(eg.Event{ID: cas, Kind: eg.KRead, Loc: 0, Excl: true}) // failed: read init (0 ≠ 5)
	g.SetRF(cas, eg.InitID(0))
	g.Add(eg.Event{ID: w, Kind: eg.KWrite, Loc: 0, Val: 5})
	g.CoInsert(0, 0, w)
	g.SetRF(cas, w) // rebind: now reads 5 → succeeds

	changed, ok := Repair(p, g, 0, 0)
	if !ok || !changed {
		t.Fatalf("repair: changed=%v ok=%v", changed, ok)
	}
	ev := g.Event(cas)
	if ev.Kind != eg.KUpdate || ev.Val != 9 {
		t.Fatalf("promoted CAS = %v, want U x=9", ev)
	}
	if g.CoIndex(0, cas) != g.CoIndex(0, w)+1 {
		t.Fatal("promoted CAS not coherence-adjacent to its source")
	}
}

func TestRepairCascadesToReaders(t *testing.T) {
	// A demoted CAS's reader inherits its rf source.
	b := prog.NewBuilder("cascade")
	x := b.Loc("x")
	t0 := b.Thread()
	t0.CAS(x, prog.Const(0), prog.Const(9))
	t1 := b.Thread()
	t1.Load(x)
	t2 := b.Thread()
	t2.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(3, 1)
	cas := eg.EvID{T: 0, I: 0}
	rd := eg.EvID{T: 1, I: 0}
	w := eg.EvID{T: 2, I: 0}
	g.Add(eg.Event{ID: cas, Kind: eg.KUpdate, Loc: 0, Val: 9, Excl: true})
	g.CoInsert(0, 0, cas)
	g.SetRF(cas, eg.InitID(0))
	g.Add(eg.Event{ID: rd, Kind: eg.KRead, Loc: 0})
	g.SetRF(rd, cas)
	g.Add(eg.Event{ID: w, Kind: eg.KWrite, Loc: 0, Val: 5})
	g.CoInsert(0, 1, w)
	g.SetRF(cas, w) // rebind: CAS fails, its write part vanishes

	if !RepairAll(p, g, 0) {
		t.Fatal("cascading repair failed")
	}
	if src, _ := g.RF(rd); src != w {
		t.Fatalf("reader rebound to %v, want %v (the demoted CAS's source)", src, w)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
}

func TestRepairDivergesOnBranchFlip(t *testing.T) {
	// T0: r = load x; if r == 0 { store y 1 }. The graph was built with
	// r=0 (store present); rebinding r to a nonzero write flips the
	// branch, so the store event can no longer be derived: structural
	// divergence.
	b := prog.NewBuilder("flip")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	r := t0.Load(x)
	j := t0.BranchFwd(prog.Ne(prog.R(r), prog.Const(0)))
	t0.Store(y, prog.Const(1))
	t0.Patch(j)
	t1 := b.Thread()
	t1.Store(x, prog.Const(5))
	p := b.MustBuild()

	g := eg.NewGraph(2, 2)
	rid := eg.EvID{T: 0, I: 0}
	g.Add(eg.Event{ID: rid, Kind: eg.KRead, Loc: 0})
	g.SetRF(rid, eg.InitID(0))
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 1}, Kind: eg.KWrite, Loc: 1, Val: 1,
		Ctrl: []eg.EvID{rid}})
	g.CoInsert(1, 0, eg.EvID{T: 0, I: 1})
	w := eg.EvID{T: 1, I: 0}
	g.Add(eg.Event{ID: w, Kind: eg.KWrite, Loc: 0, Val: 5})
	g.CoInsert(0, 0, w)
	g.SetRF(rid, w) // branch now taken: the store is skipped

	if _, ok := Repair(p, g, 0, 0); ok {
		t.Fatal("repair must report structural divergence on a branch flip")
	}
}

func TestRepairAllRejectsValueCycle(t *testing.T) {
	// Mutual increment through rf: x' = r+1 with r reading x' — the
	// values never converge (out of thin air); RepairAll must give up.
	b := prog.NewBuilder("cycle")
	x, y := b.Loc("x"), b.Loc("y")
	t0 := b.Thread()
	r0 := t0.Load(x)
	t0.Store(y, prog.Add(prog.R(r0), prog.Const(1)))
	t1 := b.Thread()
	r1 := t1.Load(y)
	t1.Store(x, prog.Add(prog.R(r1), prog.Const(1)))
	p := b.MustBuild()

	g := eg.NewGraph(2, 2)
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 0}, Kind: eg.KRead, Loc: 0})
	g.Add(eg.Event{ID: eg.EvID{T: 0, I: 1}, Kind: eg.KWrite, Loc: 1, Val: 1, Data: []eg.EvID{{T: 0, I: 0}}})
	g.CoInsert(1, 0, eg.EvID{T: 0, I: 1})
	g.Add(eg.Event{ID: eg.EvID{T: 1, I: 0}, Kind: eg.KRead, Loc: 1})
	g.Add(eg.Event{ID: eg.EvID{T: 1, I: 1}, Kind: eg.KWrite, Loc: 0, Val: 1, Data: []eg.EvID{{T: 1, I: 0}}})
	g.CoInsert(0, 0, eg.EvID{T: 1, I: 1})
	// The rf cycle: r0 reads T1's write, r1 reads T0's write.
	g.SetRF(eg.EvID{T: 0, I: 0}, eg.EvID{T: 1, I: 1})
	g.SetRF(eg.EvID{T: 1, I: 0}, eg.EvID{T: 0, I: 1})

	if RepairAll(p, g, 0) {
		t.Fatal("RepairAll must reject a diverging value cycle")
	}
}

// TestActionKindStrings pins the human-readable action names used in
// panics and the explorer's unhandled-action message.
func TestActionKindStrings(t *testing.T) {
	want := map[ActionKind]string{
		ActLoad: "load", ActStore: "store", ActCAS: "cas", ActFAdd: "fadd",
		ActXchg: "xchg", ActFence: "fence", ActDone: "done",
		ActBlocked: "blocked", ActError: "error",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if ActionKind(99).String() != "ActionKind(99)" {
		t.Errorf("unknown kind = %q", ActionKind(99).String())
	}
}

// TestRMWOutcome covers the three RMW flavours and the non-RMW panic.
func TestRMWOutcome(t *testing.T) {
	if k, v := rmwOutcome(Action{Kind: ActCAS, Old: 1, New: 5}, 1); k != eg.KUpdate || v != 5 {
		t.Errorf("successful CAS: %v %d", k, v)
	}
	if k, _ := rmwOutcome(Action{Kind: ActCAS, Old: 1, New: 5}, 2); k != eg.KRead {
		t.Errorf("failed CAS must demote to a read: %v", k)
	}
	if k, v := rmwOutcome(Action{Kind: ActFAdd, Val: 3}, 4); k != eg.KUpdate || v != 7 {
		t.Errorf("fadd: %v %d", k, v)
	}
	if k, v := rmwOutcome(Action{Kind: ActXchg, Val: 9}, 4); k != eg.KUpdate || v != 9 {
		t.Errorf("xchg: %v %d", k, v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-RMW action must panic")
			}
		}()
		rmwOutcome(Action{Kind: ActLoad}, 0)
	}()
}
