package isa

import (
	"fmt"
	"math"
	"strings"
)

// Register file and predicate file geometry. RZ reads as zero and ignores
// writes, matching NVIDIA SASS conventions.
const (
	NumRegs  = 64 // general-purpose 32-bit registers per thread
	RZ       = 63 // zero register
	NumPreds = 8  // predicate registers per thread
	PT       = 7  // always-true predicate
)

// Reg is a general-purpose register index (0..NumRegs-1).
type Reg uint8

// String implements fmt.Stringer.
func (r Reg) String() string {
	if r == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", uint8(r))
}

// Pred encodes a guard or destination predicate: low 3 bits index the
// predicate register, bit 3 negates it.
type Pred uint8

// Predicate constructors.
const (
	PredTrue Pred = PT // unguarded (@PT)
	predNeg  Pred = 1 << 3
)

// P returns the positive predicate for index i.
func P(i int) Pred { return Pred(i & 7) }

// NotP returns the negated predicate for index i.
func NotP(i int) Pred { return Pred(i&7) | predNeg }

// Index returns the predicate register index.
func (p Pred) Index() int { return int(p & 7) }

// Neg reports whether the predicate is negated.
func (p Pred) Neg() bool { return p&predNeg != 0 }

// String implements fmt.Stringer.
func (p Pred) String() string {
	name := fmt.Sprintf("P%d", p.Index())
	if p.Index() == PT {
		name = "PT"
	}
	if p.Neg() {
		return "!" + name
	}
	return name
}

// Cmp is a comparison operator used by ISET/ISETP/FSETP and IMNMX/FMNMX.
type Cmp uint8

// Comparison operators.
const (
	CmpEQ Cmp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
	numCmps
)

// String implements fmt.Stringer.
func (c Cmp) String() string {
	switch c {
	case CmpEQ:
		return "EQ"
	case CmpNE:
		return "NE"
	case CmpLT:
		return "LT"
	case CmpLE:
		return "LE"
	case CmpGT:
		return "GT"
	case CmpGE:
		return "GE"
	default:
		return fmt.Sprintf("Cmp(%d)", uint8(c))
	}
}

// EvalI applies the comparison to signed 32-bit integers.
func (c Cmp) EvalI(a, b int32) bool { return eval(c, a, b) }

// EvalF applies the comparison to float32 values: a NaN compares false
// except for NE, as in IEEE-754 unordered comparisons (and Go's).
func (c Cmp) EvalF(a, b float32) bool { return eval(c, a, b) }

func eval[T int32 | float32](c Cmp, a, b T) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpLT:
		return a < b
	case CmpLE:
		return a <= b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	}
	return false
}

// SpecialReg identifies the source of an S2R read.
type SpecialReg uint8

// Special registers.
const (
	SRTid    SpecialReg = iota // thread index within the block (x)
	SRCtaid                    // block index within the grid (x)
	SRNtid                     // threads per block (x)
	SRNctaid                   // blocks per grid (x)
	SRLane                     // lane index within the warp
	SRWarpID                   // warp index within the block
	numSpecialRegs
)

// String implements fmt.Stringer.
func (s SpecialReg) String() string {
	switch s {
	case SRTid:
		return "SR_TID"
	case SRCtaid:
		return "SR_CTAID"
	case SRNtid:
		return "SR_NTID"
	case SRNctaid:
		return "SR_NCTAID"
	case SRLane:
		return "SR_LANE"
	case SRWarpID:
		return "SR_WARPID"
	default:
		return fmt.Sprintf("SR(%d)", uint8(s))
	}
}

// Instr is one decoded machine instruction. All kernels — micro-benchmarks,
// HPC applications and CNN layers alike — are sequences of Instr values, so
// both the RTL model and the functional emulator execute the same code.
type Instr struct {
	Op    Opcode
	Guard Pred // guard predicate (@P); PredTrue when unguarded
	Dst   Reg  // destination register (when Op.HasDst)
	SrcA  Reg
	SrcB  Reg
	SrcC  Reg  // third operand for FFMA/IMAD; data register for GST/SST
	PDst  Pred // predicate destination for ISETP/FSETP; selector for SEL/IMNMX/FMNMX
	Cmp   Cmp  // comparison for ISET/ISETP/FSETP

	// Imm is the 32-bit immediate: MOV32I payload (int or float bits),
	// memory offset in words for GLD/GST/SLD/SST, shift amount fallback,
	// or the SpecialReg selector for S2R.
	Imm int32

	// UseImmB substitutes Imm for the SrcB register operand.
	UseImmB bool

	// Target is the branch destination (instruction index) for BRA.
	Target uint16

	// Reconv is the immediate post-dominator (reconvergence point) for a
	// potentially divergent BRA. It plays the role of the SSY token
	// address in pre-Volta SASS: when both branch paths are non-empty the
	// SIMT stack reconverges at this instruction index.
	Reconv uint16
}

// WithFImm returns a copy of the instruction with a float32 immediate.
func (in Instr) WithFImm(f float32) Instr {
	in.Imm = int32(math.Float32bits(f))
	return in
}

// String disassembles the instruction.
func (in Instr) String() string {
	var sb strings.Builder
	if in.Guard != PredTrue {
		fmt.Fprintf(&sb, "@%s ", in.Guard)
	}
	sb.WriteString(in.Op.String())
	switch in.Op {
	case OpISET, OpISETP, OpFSETP:
		fmt.Fprintf(&sb, ".%s", in.Cmp)
	}
	args := make([]string, 0, 4)
	if in.Op.SetsPred() {
		args = append(args, in.PDst.String())
	} else if in.Op.HasDst() {
		args = append(args, in.Dst.String())
	}
	switch in.Op {
	case OpMOV32I:
		args = append(args, fmt.Sprintf("0x%08x", uint32(in.Imm)))
	case OpS2R:
		args = append(args, SpecialReg(in.Imm).String())
	case OpGLD, OpSLD:
		args = append(args, fmt.Sprintf("[%s+%d]", in.SrcA, in.Imm))
	case OpGST, OpSST:
		args = append(args, fmt.Sprintf("[%s+%d]", in.SrcA, in.Imm), in.SrcC.String())
	case OpBRA:
		args = append(args, fmt.Sprintf("L%d", in.Target))
		if in.Reconv != 0 {
			args = append(args, fmt.Sprintf("(reconv L%d)", in.Reconv))
		}
	case OpBAR, OpNOP, OpEXIT:
		// no operands
	default:
		n := in.Op.NumSrcs()
		if n >= 1 {
			args = append(args, in.SrcA.String())
		}
		if n >= 2 {
			if in.UseImmB {
				args = append(args, fmt.Sprintf("0x%08x", uint32(in.Imm)))
			} else {
				args = append(args, in.SrcB.String())
			}
		}
		if n >= 3 {
			args = append(args, in.SrcC.String())
		}
		if in.Op == OpSEL || in.Op == OpIMNMX || in.Op == OpFMNMX {
			args = append(args, in.PDst.String())
		}
	}
	if len(args) > 0 {
		sb.WriteByte(' ')
		sb.WriteString(strings.Join(args, ", "))
	}
	return sb.String()
}

// Validate checks structural invariants of the instruction (register ranges
// are enforced by the types; this catches semantic misuse).
func (in Instr) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(in.Op))
	}
	if in.Cmp >= numCmps {
		return fmt.Errorf("isa: invalid comparison %d on %s", uint8(in.Cmp), in.Op)
	}
	if in.Op == OpS2R && SpecialReg(in.Imm) >= numSpecialRegs {
		return fmt.Errorf("isa: invalid special register %d", in.Imm)
	}
	if in.Op == OpBRA && in.Guard == PredTrue|predNeg {
		return fmt.Errorf("isa: branch guarded by !PT never executes")
	}
	return nil
}
