package core

import (
	"testing"

	"hmc/internal/eg"
	"hmc/internal/memmodel"
	"hmc/internal/prog"
)

// fuzzModels are the models a fuzz input can select — the strongest and
// weakest of each family, so consistency checking, revisit pruning and
// mode handling all get exercised.
var fuzzModels = []string{"sc", "tso", "arm", "imm", "rc11"}

// decodeProgram turns fuzz bytes into a small well-formed program: up to 3
// threads × 4 memory operations over up to 3 locations, drawn from stores,
// loads, RMWs and fences, plus control-dependent branches and
// data-dependent stores feeding off earlier loads (the dependency shapes
// hardware models order by). Every decoded program passes Validate by
// construction — the fuzzer explores the *engine's* state space, not the
// IR validator's.
func decodeProgram(data []byte) *prog.Program {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	nThreads := int(next())%3 + 1
	nLocs := int(next())%3 + 1
	b := prog.NewBuilder("fuzz")
	locs := make([]eg.Loc, nLocs)
	for i := range locs {
		locs[i] = b.Loc(string(rune('x' + i)))
	}
	modes := []eg.Mode{eg.ModePlain, eg.ModeRlx, eg.ModeAcq, eg.ModeRel, eg.ModeAcqRel, eg.ModeSC}
	for t := 0; t < nThreads; t++ {
		tb := b.Thread()
		var lastLoad prog.Reg = -1
		nInstr := int(next())%4 + 1
		for i := 0; i < nInstr; i++ {
			op, arg := next(), next()
			loc := locs[int(arg)%nLocs]
			val := int64(arg>>4) % 4
			mode := modes[int(arg)%len(modes)]
			switch op % 8 {
			case 0:
				tb.StoreM(loc, prog.Const(val), mode)
			case 1:
				lastLoad = tb.LoadM(loc, mode)
			case 2:
				tb.FAddM(loc, prog.Const(val), mode)
			case 3:
				tb.CASM(loc, prog.Const(val), prog.Const(val+1), mode)
			case 4:
				tb.XchgM(loc, prog.Const(val), mode)
			case 5:
				kinds := []eg.FenceKind{eg.FenceFull, eg.FenceLW, eg.FenceLD}
				tb.Fence(kinds[int(arg)%len(kinds)])
			case 6:
				// Data-dependent store: the stored value reads lastLoad but
				// always equals val (the multiply-by-zero idiom), so the
				// dependency machinery is exercised without changing the
				// value space.
				if lastLoad >= 0 {
					tb.Store(loc, prog.Add(prog.Mul(prog.R(lastLoad), prog.Const(0)), prog.Const(val)))
				} else {
					tb.Store(loc, prog.Const(val))
				}
			case 7:
				// Control dependency: branch on the last load, falling
				// through either way, then a store under the dependency.
				if lastLoad >= 0 {
					tb.Branch(prog.Ne(prog.R(lastLoad), prog.Const(-1)), tb.Here()+1)
				}
				tb.StoreM(loc, prog.Const(val), mode)
			}
		}
		if tb.Here() == 0 {
			tb.StoreM(locs[0], prog.Const(1), eg.ModePlain)
		}
	}
	p, err := b.Build()
	if err != nil {
		panic("fuzz decoder built an invalid program: " + err.Error())
	}
	return p
}

// FuzzExplore throws decoder-generated programs at the exploration engine
// under every model and checks the engine's own invariants: no panics
// (an EngineError here is a real bug, surfaced structurally by the
// recovery boundary instead of crashing the fuzzer), no execution key
// recorded twice (optimality), and no stuck reads (revisit completeness).
func FuzzExplore(f *testing.F) {
	f.Add([]byte{2, 2, 2, 0, 5, 1, 9}, uint8(0))
	f.Add([]byte{2, 2, 2, 1, 3, 1, 17, 2, 0, 7, 1, 19}, uint8(1))
	f.Add([]byte{3, 3, 3, 3, 12, 2, 33, 4, 5}, uint8(2))
	f.Add([]byte{1, 1, 4, 6, 1, 7, 2, 1, 3}, uint8(3))
	f.Add([]byte{2, 1, 2, 2, 8, 3, 40}, uint8(4))

	f.Fuzz(func(t *testing.T, data []byte, modelByte uint8) {
		p := decodeProgram(data)
		name := fuzzModels[int(modelByte)%len(fuzzModels)]
		m, err := memmodel.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(p, Options{
			Model:         m,
			MaxExecutions: 256,
			MaxEvents:     48,
			MaxSteps:      64,
			CollectKeys:   true,
		})
		if err != nil {
			if ee, ok := AsEngineError(err); ok {
				t.Fatalf("engine panic under %s: %v\nprogram:\n%s\nstack:\n%s",
					name, ee.PanicValue, p, ee.Stack)
			}
			t.Fatalf("explore error under %s: %v\nprogram:\n%s", name, err, p)
		}
		if err := res.CheckDistinctKeys(); err != nil {
			t.Fatalf("optimality violated under %s: %v\nprogram:\n%s", name, err, p)
		}
		if res.StuckReads != 0 {
			t.Fatalf("%d stuck reads under %s (revisit incompleteness)\nprogram:\n%s",
				res.StuckReads, name, p)
		}
	})
}
