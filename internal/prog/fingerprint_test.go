package prog_test

import (
	"testing"

	"hmc/internal/eg"
	"hmc/internal/litmus"
	"hmc/internal/prog"
)

// TestFingerprintSeparatesAccessModes: corpus tests that differ only in
// their accesses' memory orders are different programs under rc11, so
// they must not share a fingerprint (the verdict-cache key).
func TestFingerprintSeparatesAccessModes(t *testing.T) {
	for _, family := range [][]string{
		{"SB", "SB+scs", "SB+sc+rlx"},
		{"MP", "MP+rel+acq", "MP+rel+rlx", "MP+rlx+acq"},
	} {
		seen := map[string]string{}
		for _, name := range family {
			tc, ok := litmus.ByName(name)
			if !ok {
				t.Fatalf("missing corpus test %s", name)
			}
			fp := tc.P.Fingerprint()
			if other, dup := seen[fp]; dup {
				t.Errorf("%s and %s share fingerprint %s", other, name, fp)
			}
			seen[fp] = name
		}
	}
}

// TestFingerprintCoversCASSuccess: a CAS that records its success flag
// and one that does not are different programs.
func TestFingerprintCoversCASSuccess(t *testing.T) {
	build := func(keepSucc bool) *prog.Program {
		b := prog.NewBuilder("cas")
		x := b.Loc("x")
		b.Thread().CAS(x, prog.Const(0), prog.Const(1))
		p := b.MustBuild()
		if !keepSucc {
			p.Threads[0][0].Succ = -1
		}
		return p
	}
	if build(true).Fingerprint() == build(false).Fingerprint() {
		t.Error("the CAS success register must be part of the fingerprint")
	}
	a, b := build(true), build(true)
	a.Threads[0][0].Mode = eg.ModeSC
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("the CAS memory order must be part of the fingerprint")
	}
}
