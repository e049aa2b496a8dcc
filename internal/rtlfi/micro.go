// Package rtlfi is the RTL fault-injection campaign engine: it drives the
// internal/rtl machine through the paper's micro-benchmarks (one per
// characterised SASS instruction, 64 threads / 2 warps each) and the
// tiled-MxM mini-app, injecting single-transient flip-flop faults and
// classifying their effect as Masked, SDC or DUE (§IV-A, §V).
package rtlfi

import (
	"fmt"
	"math"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/stats"
)

// MicroThreads is the paper's micro-benchmark thread count (2 warps).
const MicroThreads = 64

// Global-memory layout of a micro-benchmark (word offsets).
const (
	inAOff     = 0
	inBOff     = MicroThreads
	inCOff     = 2 * MicroThreads
	outOff     = 3 * MicroThreads
	out2Off    = 4 * MicroThreads
	microWords = 5 * MicroThreads
)

// Registers used by micro-benchmarks.
const (
	mTid = isa.Reg(1)
	mA   = isa.Reg(2)
	mB   = isa.Reg(3)
	mC   = isa.Reg(4)
	mD   = isa.Reg(5)
	mM   = isa.Reg(6)
)

// braThreshold is the comparison constant of the BRA/ISET benchmarks;
// inputs are generated on both sides of it so the branch diverges.
const braThreshold = 0

// BuildMicro assembles the micro-benchmark for one characterised opcode.
// Arithmetic benchmarks load per-thread operands, execute the target
// instruction and store its result; the memory benchmarks exercise
// load/store chains; the control benchmarks set registers, branch, and
// store path markers (§V-A).
func BuildMicro(op isa.Opcode) (*kasm.Program, error) {
	b := kasm.New("micro_" + op.String())
	b.S2R(mTid, isa.SRTid)
	switch op {
	case isa.OpFADD, isa.OpFMUL, isa.OpIADD, isa.OpIMUL:
		b.Gld(mA, mTid, inAOff)
		b.Gld(mB, mTid, inBOff)
		b.Emit(isa.Instr{Op: op, Guard: isa.PredTrue, Dst: mD, SrcA: mA, SrcB: mB, SrcC: isa.RZ})
		b.Gst(mTid, outOff, mD)
	case isa.OpFFMA, isa.OpIMAD:
		b.Gld(mA, mTid, inAOff)
		b.Gld(mB, mTid, inBOff)
		b.Gld(mC, mTid, inCOff)
		b.Emit(isa.Instr{Op: op, Guard: isa.PredTrue, Dst: mD, SrcA: mA, SrcB: mB, SrcC: mC})
		b.Gst(mTid, outOff, mD)
	case isa.OpFSIN, isa.OpFEXP, isa.OpFRCP, isa.OpFRSQRT:
		// FRCP/FRSQRT extend the paper's 12-instruction set — §VII notes
		// the framework "allows future updates ... extended instructions
		// evaluation".
		b.Gld(mA, mTid, inAOff)
		b.Emit(isa.Instr{Op: op, Guard: isa.PredTrue, Dst: mD, SrcA: mA, SrcB: isa.RZ, SrcC: isa.RZ})
		b.Gst(mTid, outOff, mD)
	case isa.OpGLD:
		// Load followed by store (§V-A).
		b.Gld(mA, mTid, inAOff)
		b.Gst(mTid, outOff, mA)
	case isa.OpGST:
		// Store-dominated chain: the loaded value is stored twice.
		b.Gld(mA, mTid, inAOff)
		b.Gst(mTid, outOff, mA)
		b.Gst(mTid, out2Off, mA)
	case isa.OpISET:
		b.Gld(mA, mTid, inAOff)
		b.ISetPI(isa.P(0), isa.CmpLT, mA, braThreshold)
		b.ISet(mD, isa.CmpLT, mA, isa.RZ)
		b.Gst(mTid, outOff, mD)
	case isa.OpBRA:
		// Set registers, branch on the condition, store path markers. A
		// fault is detected when a set register is wrong or the branch
		// goes the wrong way (§V-A).
		b.Gld(mA, mTid, inAOff)
		b.MovI(mM, 0)
		b.ISetPI(isa.P(0), isa.CmpLT, mA, braThreshold)
		b.IfElse(isa.P(0),
			func() { b.MovI(mM, 0x0000AAAA) },
			func() { b.MovI(mM, 0x00005555) },
		)
		b.ISet(mD, isa.CmpLT, mA, isa.RZ)
		b.Gst(mTid, outOff, mM)
		b.Gst(mTid, out2Off, mD)
	default:
		return nil, fmt.Errorf("rtlfi: opcode %s has no micro-benchmark", op)
	}
	return b.Finalize()
}

// isIntOp reports whether the benchmark operands are integers.
func isIntOp(op isa.Opcode) bool {
	switch op {
	case isa.OpIADD, isa.OpIMUL, isa.OpIMAD, isa.OpISET, isa.OpBRA, isa.OpGLD, isa.OpGST:
		return true
	}
	return false
}

// rangeFloat draws one float operand from the paper's S/M/L bounds.
func rangeFloat(r *stats.RNG, rng faults.InputRange) float32 {
	lo, hi := faults.RangeBounds(rng)
	return float32(r.Float64Range(lo, hi))
}

// rangeInt draws one integer operand of S/M/L magnitude. The paper's L
// bound (up to 12.5e9) exceeds the int32 range, so integer L values are
// clamped to [1e9, 2e9] — a documented deviation (DESIGN.md §6).
func rangeInt(r *stats.RNG, rng faults.InputRange) int32 {
	switch rng {
	case faults.RangeSmall:
		return int32(r.Intn(7) + 1)
	case faults.RangeMedium:
		return int32(r.Intn(58) + 2)
	default:
		return int32(r.Intn(1_000_000_000) + 1_000_000_000)
	}
}

// sfuInput draws a special-function operand in (0, pi/2), the SFU
// operating regime the paper characterises ("avoiding range reduction").
// The range index selects the sub-interval so campaigns remain
// range-parameterised.
func sfuInput(r *stats.RNG, rng faults.InputRange) float32 {
	const third = math.Pi / 2 / 3
	lo := float64(rng) * third
	return float32(r.Float64Range(lo+0.01, lo+third-0.01))
}

// MicroInputs builds the global-memory image for one campaign value draw:
// every thread receives the same operand pair, as in the paper's
// micro-benchmarks; control benchmarks alternate per-thread signs so the
// branch actually diverges.
func MicroInputs(op isa.Opcode, rng faults.InputRange, r *stats.RNG) []uint32 {
	g := make([]uint32, microWords)
	switch {
	case op == isa.OpFSIN || op == isa.OpFEXP:
		v := sfuInput(r, rng)
		for i := 0; i < MicroThreads; i++ {
			g[inAOff+i] = math.Float32bits(v)
		}
	case op == isa.OpFRCP || op == isa.OpFRSQRT:
		v := rangeFloat(r, rng) // full S/M/L ranges (no range-reduction limit)
		for i := 0; i < MicroThreads; i++ {
			g[inAOff+i] = math.Float32bits(v)
		}
	case op == isa.OpISET || op == isa.OpBRA:
		// Signed values straddling the threshold: even threads negative.
		mag := rangeInt(r, rng)
		for i := 0; i < MicroThreads; i++ {
			v := mag
			if i%2 == 0 {
				v = -mag
			}
			g[inAOff+i] = uint32(v)
		}
	case op == isa.OpGLD || op == isa.OpGST:
		v := rangeInt(r, rng)
		for i := 0; i < MicroThreads; i++ {
			g[inAOff+i] = uint32(v) + uint32(i)
		}
	case isIntOp(op):
		a, b, c := rangeInt(r, rng), rangeInt(r, rng), rangeInt(r, rng)
		for i := 0; i < MicroThreads; i++ {
			g[inAOff+i] = uint32(a)
			g[inBOff+i] = uint32(b)
			g[inCOff+i] = uint32(c)
		}
	default:
		a, b, c := rangeFloat(r, rng), rangeFloat(r, rng), rangeFloat(r, rng)
		for i := 0; i < MicroThreads; i++ {
			g[inAOff+i] = math.Float32bits(a)
			g[inBOff+i] = math.Float32bits(b)
			g[inCOff+i] = math.Float32bits(c)
		}
	}
	return g
}

// outputWords lists the output word offsets checked for SDCs, per thread.
func outputOffsets(op isa.Opcode) []int {
	if op == isa.OpGST || op == isa.OpBRA {
		return []int{outOff, out2Off}
	}
	return []int{outOff}
}

// ModuleUsed reports whether a module is exercised by an opcode's
// micro-benchmark — the paper does not inject into idle functional units
// ("we have not considered injections in functional units for GLD, GST,
// BRA, and ISET as the FUs are idle", §V-B).
func ModuleUsed(mod faults.Module, op isa.Opcode) bool {
	switch mod {
	case faults.ModFP32:
		return op == isa.OpFADD || op == isa.OpFMUL || op == isa.OpFFMA
	case faults.ModINT:
		return op == isa.OpIADD || op == isa.OpIMUL || op == isa.OpIMAD
	case faults.ModSFU, faults.ModSFUCtl:
		return op == isa.OpFSIN || op == isa.OpFEXP ||
			op == isa.OpFRCP || op == isa.OpFRSQRT
	default: // scheduler and pipeline serve every instruction
		return true
	}
}

// ExtendedOpcodes lists the instructions beyond the paper's 12 for which
// micro-benchmarks exist (the §VII extensibility path).
func ExtendedOpcodes() []isa.Opcode {
	return []isa.Opcode{isa.OpFRCP, isa.OpFRSQRT}
}
