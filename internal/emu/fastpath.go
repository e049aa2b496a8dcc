package emu

import (
	"math"
	"math/bits"

	"gpufi/internal/fp32"
	"gpufi/internal/isa"
)

// The interpreter: a stepper over the pre-decoded program (decode.go).
// It dispatches the opcode once per warp instruction and runs each
// operation as a loop over whole register rows, routing results bound for
// RZ (or for no register) into a scratch row so the lane loops carry no
// destination test.
//
// While a Post hook may fire, stepFast also fills the Event from whole
// rows: the srcA row and the srcB row (or the broadcast immediate) before
// the instruction runs, and after it the row it wrote (the scratch row for
// RZ) or, for a store, the stored srcC row. It calls Post once per warp
// instruction with a non-zero guard and never on an instruction that
// faults.
//
// The reference interpreter (Tier 0, reference_test.go) steps the same
// programs one lane at a time from the raw isa.Instr. The two agree on
// every Result counter, error, memory image, per-instruction warp state
// and hook event — including partial memory effects of a warp instruction
// that faults mid-warp — as FuzzEmuFastPathVsReference checks.

const fullWarp = uint32(0xFFFFFFFF)

// stepFast executes one warp-level instruction on the decoded program.
func (ex *exec) stepFast(blockID int, w *warp) error {
	// Resolve the SIMT stack: drop empty paths and reconverged paths.
	for {
		if len(w.stack) == 0 {
			w.done = true
			return nil
		}
		top := &w.stack[len(w.stack)-1]
		if top.mask&w.live == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if top.reconv >= 0 && top.nextPC == top.reconv {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		break
	}
	top := &w.stack[len(w.stack)-1]
	pc := top.nextPC
	ins := ex.dp.ins
	if pc < 0 || pc >= len(ins) {
		return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrIllegalInstr}
	}
	d := &ins[pc]
	active := top.mask & w.live
	guard := active & (w.preds[d.gIdx] ^ d.gXor)

	n := uint64(bits.OnesCount32(guard))
	ex.res.DynThreadInstrs += n
	ex.res.PerOpcode[d.op] += n
	if ex.res.DynThreadInstrs > ex.budget {
		return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrWatchdog}
	}

	post := ex.post
	if post != nil && guard != 0 {
		ex.prepareEvent(blockID, w, pc, ex.l.Prog.Instrs[pc], guard)
		if d.kind == kData {
			ex.ev.srcA = w.regs[d.srcA]
			ex.ev.srcB = *ex.srcBRow(w, d)
		}
	} else {
		post = nil
	}

	switch d.kind {
	case kData:
		if guard != 0 {
			if err := ex.execDataFast(blockID, w, pc, d, guard); err != nil {
				return err
			}
		}
		top.nextPC = pc + 1
	case kBRA:
		ntaken := active &^ guard
		switch {
		case guard == 0:
			top.nextPC = pc + 1
		case ntaken == 0:
			top.nextPC = int(d.target)
		default:
			if d.reconv == 0 {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrUnstructured}
			}
			if len(w.stack)+2 > maxStackDepth {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrStackOverflow}
			}
			r := int(d.reconv)
			top.nextPC = r
			w.stack = append(w.stack,
				stackEntry{nextPC: pc + 1, mask: ntaken, reconv: r},
				stackEntry{nextPC: int(d.target), mask: guard, reconv: r},
			)
		}
	case kEXIT:
		for i := range w.stack {
			w.stack[i].mask &^= guard
		}
		w.live &^= guard
		top.nextPC = pc + 1
	case kBAR:
		if active != w.live {
			return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBarrierDivergence}
		}
		w.atBar = true
		top.nextPC = pc + 1
	default: // kNOP
		top.nextPC = pc + 1
	}

	if post != nil {
		if d.kind == kData {
			if d.op == isa.OpGST || d.op == isa.OpSST {
				ex.ev.dst = w.regs[d.srcC]
			} else {
				ex.ev.dst = *ex.dstRow(w, d)
			}
		}
		post(&ex.ev)
	}
	return nil
}

// dstRow returns the register row an instruction writes, or the scratch
// row when the destination is RZ (or the opcode writes no register), so
// the per-lane loops need no destination test. Routing dropped results
// through scratch preserves the invariant that regs[RZ] stays all-zero.
func (ex *exec) dstRow(w *warp, d *dinstr) *[WarpSize]uint32 {
	if d.writeDst {
		return &w.regs[d.dst]
	}
	return &ex.scratch
}

// srcBRow returns the second-operand row, broadcasting an immediate into
// the scratch immediate row when UseImmB is set. Hot integer ops
// specialize the immediate form inline instead.
func (ex *exec) srcBRow(w *warp, d *dinstr) *[WarpSize]uint32 {
	if !d.useImm {
		return &w.regs[d.srcB]
	}
	b := uint32(d.imm)
	r := &ex.immRow
	for i := range r {
		r[i] = b
	}
	return r
}

// execDataFast executes a non-control instruction across the guarded
// lanes, dispatching the opcode once per warp instruction. Lanes are
// visited in ascending order, exactly as the reference interpreter does,
// so overlapping stores and mid-warp address faults behave identically.
// guard is never zero here.
func (ex *exec) execDataFast(blockID int, w *warp, pc int, d *dinstr, guard uint32) error {
	switch d.op {
	case isa.OpFADD:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = fp32.AddBits(a[l], b[l])
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = fp32.AddBits(a[l], b[l])
			}
		}
	case isa.OpFMUL:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = fp32.MulBits(a[l], b[l])
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = fp32.MulBits(a[l], b[l])
			}
		}
	case isa.OpFFMA:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		c := &w.regs[d.srcC]
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = fp32.FmaBits(a[l], b[l], c[l])
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = fp32.FmaBits(a[l], b[l], c[l])
			}
		}
	case isa.OpIADD:
		a, dst := &w.regs[d.srcA], ex.dstRow(w, d)
		if d.useImm {
			b := uint32(d.imm)
			if guard == fullWarp {
				for l := 0; l < WarpSize; l++ {
					dst[l] = a[l] + b
				}
			} else {
				for m := guard; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					dst[l] = a[l] + b
				}
			}
		} else {
			b := &w.regs[d.srcB]
			if guard == fullWarp {
				for l := 0; l < WarpSize; l++ {
					dst[l] = a[l] + b[l]
				}
			} else {
				for m := guard; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					dst[l] = a[l] + b[l]
				}
			}
		}
	case isa.OpIMUL:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = uint32(int32(a[l]) * int32(b[l]))
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = uint32(int32(a[l]) * int32(b[l]))
			}
		}
	case isa.OpIMAD:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		c := &w.regs[d.srcC]
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = uint32(int32(a[l])*int32(b[l]) + int32(c[l]))
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = uint32(int32(a[l])*int32(b[l]) + int32(c[l]))
			}
		}
	case isa.OpFSIN:
		a, dst := &w.regs[d.srcA], ex.dstRow(w, d)
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dst[l] = math.Float32bits(fp32.Sin(math.Float32frombits(a[l])))
		}
	case isa.OpFEXP:
		a, dst := &w.regs[d.srcA], ex.dstRow(w, d)
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dst[l] = math.Float32bits(fp32.Exp(math.Float32frombits(a[l])))
		}
	case isa.OpFRCP:
		a, dst := &w.regs[d.srcA], ex.dstRow(w, d)
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dst[l] = math.Float32bits(fp32.Rcp(math.Float32frombits(a[l])))
		}
	case isa.OpFRSQRT:
		a, dst := &w.regs[d.srcA], ex.dstRow(w, d)
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dst[l] = math.Float32bits(fp32.Rsqrt(math.Float32frombits(a[l])))
		}
	case isa.OpGLD:
		g := ex.l.Global
		mt, at := ex.l.Mem, ex.att
		if mt != nil && mt.Loaded == nil {
			mt = nil // a store-only trace
		}
		// An attempt logs the loads in its window; outside attempts the
		// window is empty.
		var lo, span uint32
		if at != nil {
			lo, span = at.Lo, at.Hi-at.Lo
		}
		a, dst := &w.regs[d.srcA], ex.dstRow(w, d)
		imm := int64(d.imm)
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			addr := int64(int32(a[l])) + imm
			if uint64(addr) >= uint64(len(g)) {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBadAddress}
			}
			if mt != nil {
				mt.load(addr, g[addr], l)
			}
			if uint32(addr)-lo < span {
				at.Loads = append(at.Loads, uint32(addr))
			}
			dst[l] = g[addr]
		}
	case isa.OpGST:
		g := ex.l.Global
		mt, at := ex.l.Mem, ex.att
		a, c := &w.regs[d.srcA], &w.regs[d.srcC]
		imm := int64(d.imm)
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			addr := int64(int32(a[l])) + imm
			if uint64(addr) >= uint64(len(g)) {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBadAddress}
			}
			if mt != nil {
				mt.store(addr, l)
			}
			if at != nil {
				at.Stores = append(at.Stores, Load{Addr: uint32(addr), Val: g[addr]})
			}
			g[addr] = c[l]
		}
	case isa.OpSLD:
		sh := ex.shared
		a, dst := &w.regs[d.srcA], ex.dstRow(w, d)
		imm := int64(d.imm)
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			addr := int64(int32(a[l])) + imm
			if uint64(addr) >= uint64(len(sh)) {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBadAddress}
			}
			dst[l] = sh[addr]
		}
	case isa.OpSST:
		sh := ex.shared
		a, c := &w.regs[d.srcA], &w.regs[d.srcC]
		imm := int64(d.imm)
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			addr := int64(int32(a[l])) + imm
			if uint64(addr) >= uint64(len(sh)) {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBadAddress}
			}
			sh[addr] = c[l]
		}
	case isa.OpISET:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		cmp := d.cmp
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if cmp.EvalI(int32(a[l]), int32(b[l])) {
				dst[l] = 0xFFFFFFFF
			} else {
				dst[l] = 0
			}
		}
	case isa.OpISETP:
		if d.pIdx == uint8(isa.PT) {
			return nil // PT is read-only; the reference interpreter drops the write
		}
		a, b := &w.regs[d.srcA], ex.srcBRow(w, d)
		cmp, neg := d.cmp, d.pNeg
		pbits := w.preds[d.pIdx]
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if cmp.EvalI(int32(a[l]), int32(b[l])) != neg {
				pbits |= 1 << uint(l)
			} else {
				pbits &^= 1 << uint(l)
			}
		}
		w.preds[d.pIdx] = pbits
	case isa.OpFSETP:
		if d.pIdx == uint8(isa.PT) {
			return nil
		}
		a, b := &w.regs[d.srcA], ex.srcBRow(w, d)
		cmp, neg := d.cmp, d.pNeg
		pbits := w.preds[d.pIdx]
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			v := cmp.EvalF(math.Float32frombits(a[l]), math.Float32frombits(b[l]))
			if v != neg {
				pbits |= 1 << uint(l)
			} else {
				pbits &^= 1 << uint(l)
			}
		}
		w.preds[d.pIdx] = pbits
	case isa.OpMOV:
		a, dst := &w.regs[d.srcA], ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = a[l]
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = a[l]
			}
		}
	case isa.OpMOV32I:
		dst := ex.dstRow(w, d)
		v := uint32(d.imm)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = v
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = v
			}
		}
	case isa.OpSEL:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		p := w.preds[d.pIdx] ^ d.pXor
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if p>>uint(l)&1 == 1 {
				dst[l] = a[l]
			} else {
				dst[l] = b[l]
			}
		}
	case isa.OpS2R:
		dst := ex.dstRow(w, d)
		switch sr := isa.SpecialReg(d.imm); sr {
		case isa.SRTid:
			base := uint32(w.id * WarpSize)
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = base + uint32(l)
			}
		case isa.SRLane:
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = uint32(l)
			}
		default:
			v := ex.specialReg(sr, blockID, w.id, 0)
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = v
			}
		}
	case isa.OpSHL:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = a[l] << (b[l] & 31)
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = a[l] << (b[l] & 31)
			}
		}
	case isa.OpSHR:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = a[l] >> (b[l] & 31)
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = a[l] >> (b[l] & 31)
			}
		}
	case isa.OpAND:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = a[l] & b[l]
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = a[l] & b[l]
			}
		}
	case isa.OpOR:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = a[l] | b[l]
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = a[l] | b[l]
			}
		}
	case isa.OpXOR:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = a[l] ^ b[l]
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = a[l] ^ b[l]
			}
		}
	case isa.OpIMNMX:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		p := w.preds[d.pIdx] ^ d.pXor
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			x, y := int32(a[l]), int32(b[l])
			if (p>>uint(l)&1 == 1) == (x < y) {
				dst[l] = uint32(x)
			} else {
				dst[l] = uint32(y)
			}
		}
	case isa.OpFMNMX:
		a, b, dst := &w.regs[d.srcA], ex.srcBRow(w, d), ex.dstRow(w, d)
		p := w.preds[d.pIdx] ^ d.pXor
		for m := guard; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			fa, fb := math.Float32frombits(a[l]), math.Float32frombits(b[l])
			if p>>uint(l)&1 == 1 {
				dst[l] = math.Float32bits(fp32.Min(fa, fb))
			} else {
				dst[l] = math.Float32bits(fp32.Max(fa, fb))
			}
		}
	case isa.OpF2I:
		a, dst := &w.regs[d.srcA], ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = uint32(fp32.F2I(math.Float32frombits(a[l])))
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = uint32(fp32.F2I(math.Float32frombits(a[l])))
			}
		}
	case isa.OpI2F:
		a, dst := &w.regs[d.srcA], ex.dstRow(w, d)
		if guard == fullWarp {
			for l := 0; l < WarpSize; l++ {
				dst[l] = math.Float32bits(fp32.I2F(int32(a[l])))
			}
		} else {
			for m := guard; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dst[l] = math.Float32bits(fp32.I2F(int32(a[l])))
			}
		}
	default:
		return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrIllegalInstr}
	}
	return nil
}
