package prog

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"hmc/internal/eg"
)

// InstrOp enumerates instruction kinds.
type InstrOp uint8

const (
	ILoad   InstrOp = iota // Dst = *Addr
	IStore                 // *Addr = Val
	ICAS                   // Dst = *Addr; if Dst == Old { *Addr = New } (Succ reg optional)
	IFAdd                  // Dst = *Addr; *Addr = Dst + Val (atomic fetch-add)
	IXchg                  // Dst = *Addr; *Addr = Val (atomic exchange)
	IFence                 // memory barrier of kind Fence
	IMov                   // Dst = Val (register computation)
	IBranch                // if Cond != 0 goto Target
	IJmp                   // goto Target
	IAssume                // if Cond == 0 the execution is blocked (discarded)
	IAssert                // if Cond == 0 the execution is erroneous
)

// Instr is one instruction. Which fields are meaningful depends on Op:
//
//	ILoad:   Dst, Addr
//	IStore:  Addr, Val
//	ICAS:    Dst (value read), Succ (1/0 success flag, -1 if unused), Addr, Old, New
//	IFAdd:   Dst (value read), Addr, Val (addend)
//	IXchg:   Dst (value read), Addr, Val
//	IFence:  Fence
//	IMov:    Dst, Val
//	IBranch: Cond, Target
//	IJmp:    Target
//	IAssume: Cond
//	IAssert: Cond, Msg
type Instr struct {
	Op     InstrOp
	Dst    Reg
	Succ   Reg // ICAS success flag destination, or -1
	Addr   *Expr
	Val    *Expr
	Old    *Expr
	New    *Expr
	Cond   *Expr
	Target int
	Fence  eg.FenceKind
	Mode   eg.Mode // C11-style order annotation on memory accesses
	Msg    string
}

func (in Instr) String() string {
	switch in.Op {
	case ILoad:
		return fmt.Sprintf("r%d = load [%v]", in.Dst, in.Addr)
	case IStore:
		return fmt.Sprintf("store [%v] = %v", in.Addr, in.Val)
	case ICAS:
		return fmt.Sprintf("r%d = cas [%v] %v -> %v", in.Dst, in.Addr, in.Old, in.New)
	case IFAdd:
		return fmt.Sprintf("r%d = fadd [%v] += %v", in.Dst, in.Addr, in.Val)
	case IXchg:
		return fmt.Sprintf("r%d = xchg [%v] = %v", in.Dst, in.Addr, in.Val)
	case IFence:
		return fmt.Sprintf("fence.%v", in.Fence)
	case IMov:
		return fmt.Sprintf("r%d = %v", in.Dst, in.Val)
	case IBranch:
		return fmt.Sprintf("if %v goto %d", in.Cond, in.Target)
	case IJmp:
		return fmt.Sprintf("goto %d", in.Target)
	case IAssume:
		return fmt.Sprintf("assume %v", in.Cond)
	case IAssert:
		return fmt.Sprintf("assert %v (%s)", in.Cond, in.Msg)
	}
	return "?"
}

// Program is a complete concurrent test case.
type Program struct {
	Name     string
	Threads  [][]Instr
	NumLocs  int
	LocNames []string // len == NumLocs
	NumRegs  []int    // registers used per thread

	// Exists is the litmus-style final-state predicate ("is the
	// interesting/weak outcome observable?"). May be nil. It is evaluated
	// on complete executions only.
	Exists func(FinalState) bool
	// ExistsDesc documents the predicate for reports.
	ExistsDesc string
}

// FinalState is the observable end state of a complete execution: the final
// (coherence-maximal) value of every location and each thread's registers.
type FinalState struct {
	Mem  []int64   // indexed by Loc
	Regs [][]int64 // [thread][reg]
}

// Reg returns thread t's register r in the final state.
func (fs FinalState) Reg(t int, r Reg) int64 { return fs.Regs[t][r] }

// LocName returns the printable name of a location.
func (p *Program) LocName(l eg.Loc) string {
	if int(l) < len(p.LocNames) && p.LocNames[l] != "" {
		return p.LocNames[l]
	}
	return fmt.Sprintf("x%d", l)
}

// Validate checks static sanity: branch targets in range, register and
// location references within bounds.
func (p *Program) Validate() error {
	var errs []error
	if p.NumLocs <= 0 {
		errs = append(errs, fmt.Errorf("prog %q: no locations", p.Name))
	}
	for t, th := range p.Threads {
		for pc, in := range th {
			switch in.Op {
			case IBranch, IJmp:
				if in.Target < 0 || in.Target > len(th) {
					errs = append(errs, fmt.Errorf("prog %q: t%d pc%d target %d out of range", p.Name, t, pc, in.Target))
				}
			}
			for _, e := range []*Expr{in.Addr, in.Val, in.Old, in.New, in.Cond} {
				if e == nil {
					continue
				}
				for _, r := range e.Regs(nil) {
					if int(r) < 0 || int(r) >= p.NumRegs[t] {
						errs = append(errs, fmt.Errorf("prog %q: t%d pc%d register r%d out of range", p.Name, t, pc, r))
					}
				}
			}
		}
	}
	return errors.Join(errs...)
}

// Fingerprint returns a canonical content hash of the program: its
// instruction streams, location/register counts and Exists description,
// but not its Name or location names — two tests that differ only in
// labelling hash alike. Every semantic Instr field is hashed, not just
// what Instr.String shows: the access Mode (so MP and MP+rel+acq differ)
// and a CAS's Succ register included. The Exists closure itself cannot be hashed, so
// ExistsDesc stands in for it; programs built from litmus text (where the
// description is derived from the clause) therefore hash canonically,
// while hand-built programs must keep ExistsDesc faithful for the hash
// to be a sound cache key. This is the key of the service verdict cache.
func (p *Program) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "locs=%d\n", p.NumLocs)
	for t, th := range p.Threads {
		fmt.Fprintf(h, "T%d regs=%d\n", t, p.NumRegs[t])
		for pc, in := range th {
			fmt.Fprintf(h, " %d: op=%d dst=%d succ=%d addr=%v val=%v old=%v new=%v cond=%v target=%d fence=%d mode=%d msg=%q\n",
				pc, in.Op, in.Dst, in.Succ, in.Addr, in.Val, in.Old, in.New, in.Cond, in.Target, in.Fence, in.Mode, in.Msg)
		}
	}
	fmt.Fprintf(h, "exists(%v)=%s\n", p.Exists != nil, p.ExistsDesc)
	return hex.EncodeToString(h.Sum(nil))
}

// String renders the whole program.
func (p *Program) String() string {
	s := fmt.Sprintf("program %q (%d locations)\n", p.Name, p.NumLocs)
	for t, th := range p.Threads {
		s += fmt.Sprintf("thread %d:\n", t)
		for pc, in := range th {
			s += fmt.Sprintf("  %2d: %v\n", pc, in)
		}
	}
	if p.ExistsDesc != "" {
		s += "exists: " + p.ExistsDesc + "\n"
	}
	return s
}
