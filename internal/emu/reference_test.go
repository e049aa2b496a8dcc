package emu

import (
	"math"
	"math/bits"

	"gpufi/internal/fp32"
	"gpufi/internal/isa"
)

// The reference interpreter (Tier 0): the per-lane stepper the emulator
// ran before the pre-decoded program existed, and the oracle
// FuzzEmuFastPathVsReference and TestEmuFastPathCorpus hold stepFast to.
// It re-derives every operand, the guard and the destination test from
// the raw isa.Instr on every lane, so it is slow and obviously correct.
// runReference drives it over a launch with the production exec state —
// checkpoint capture, the ArmAfter/OnArm countdown, Post hooks and
// Event.Disarm included — so the two interpreters differ only in how
// they step.

// runReference executes l like RunCheckpointed, stepping every
// instruction on the reference interpreter. Replay and BlockDone are not
// offered; the differential tests do not set them.
func runReference(l *Launch, first, every uint64, sink func(*Snapshot)) (Result, error) {
	ex := newExec(l)
	defer ex.release()
	ex.ckSink, ex.ckNext, ex.ckEvery = sink, first, every
	if err := ex.validate(); err != nil {
		return ex.res, err
	}
	for b := 0; b < l.Grid; b++ {
		if err := ex.referenceBlock(b, ex.newBlock()); err != nil {
			return ex.res, err
		}
	}
	return ex.res, nil
}

// referenceBlock is blockLoop with step in place of stepFast. It starts a
// barrier-free block's warps when the round-robin loop reaches them, as
// blockLoop does, so the two interpreters' snapshots agree.
func (ex *exec) referenceBlock(blockID int, warps []*warp) error {
	for {
		for i, w := range warps {
			if w == nil {
				w = newWarp(i, ex.l.Block)
				warps[i] = w
			}
			for !w.done && !w.atBar {
				if ex.ckSink != nil && ex.res.DynThreadInstrs >= ex.ckNext {
					ex.ckSink(ex.snapshot(blockID, i, warps))
					for ex.ckNext <= ex.res.DynThreadInstrs {
						ex.ckNext += ex.ckEvery
					}
				}
				if !ex.armed && ex.res.DynThreadInstrs+WarpSize > ex.l.Hooks.ArmAfter {
					ex.armed = true
					ex.post = ex.l.Hooks.Post
					ex.l.Hooks.OnArm(&ex.res)
				}
				if err := ex.step(blockID, w); err != nil {
					return err
				}
			}
		}
		if done, err := releaseBarrier(blockID, warps); done || err != nil {
			return err
		}
	}
}

// evalPred returns the lane mask where predicate p holds.
func (w *warp) evalPred(p isa.Pred) uint32 {
	m := w.preds[p.Index()]
	if p.Neg() {
		m = ^m
	}
	return m
}

// predLane reports whether predicate p holds in one lane.
func (w *warp) predLane(p isa.Pred, lane int) bool {
	return w.evalPred(p)>>uint(lane)&1 == 1
}

func (w *warp) setPredLane(p isa.Pred, lane int, v bool) {
	idx := p.Index()
	if idx == isa.PT {
		return // PT is read-only
	}
	bit := uint32(1) << uint(lane)
	if v != p.Neg() { // a negated destination stores the complement
		w.preds[idx] |= bit
	} else {
		w.preds[idx] &^= bit
	}
}

// step executes one warp-level instruction.
func (ex *exec) step(blockID int, w *warp) error {
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
	prog := ex.l.Prog.Instrs
	if pc < 0 || pc >= len(prog) {
		// Structurally impossible for kasm output (trailing EXIT), but
		// reachable under fault injection.
		return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrIllegalInstr}
	}
	in := prog[pc]
	active := top.mask & w.live
	guard := active & w.evalPred(in.Guard)

	n := uint64(bits.OnesCount32(guard))
	ex.res.DynThreadInstrs += n
	ex.res.PerOpcode[in.Op] += n
	if ex.res.DynThreadInstrs > ex.budget {
		return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrWatchdog}
	}

	post := ex.post
	capture := post != nil && guard != 0
	if capture {
		ex.prepareEvent(blockID, w, pc, in, guard)
	}

	switch in.Op {
	case isa.OpBRA:
		if err := ex.execBranch(blockID, w, top, pc, in, active, guard); err != nil {
			return err
		}
	case isa.OpEXIT:
		for i := range w.stack {
			w.stack[i].mask &^= guard
		}
		w.live &^= guard
		top.nextPC = pc + 1
	case isa.OpBAR:
		if active != w.live {
			return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBarrierDivergence}
		}
		w.atBar = true
		top.nextPC = pc + 1
	case isa.OpNOP:
		top.nextPC = pc + 1
	default:
		if err := ex.execData(blockID, w, pc, in, guard, capture); err != nil {
			return err
		}
		top.nextPC = pc + 1
	}

	if capture {
		post(&ex.ev)
	}
	return nil
}

// execBranch implements the PDOM stack transition for BRA.
func (ex *exec) execBranch(blockID int, w *warp, top *stackEntry, pc int, in isa.Instr, active, taken uint32) error {
	ntaken := active &^ taken
	switch {
	case taken == 0:
		top.nextPC = pc + 1
	case ntaken == 0:
		top.nextPC = int(in.Target)
	default:
		if in.Reconv == 0 {
			return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrUnstructured}
		}
		if len(w.stack)+2 > maxStackDepth {
			return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrStackOverflow}
		}
		r := int(in.Reconv)
		top.nextPC = r
		w.stack = append(w.stack,
			stackEntry{nextPC: pc + 1, mask: ntaken, reconv: r},
			stackEntry{nextPC: int(in.Target), mask: taken, reconv: r},
		)
	}
	return nil
}

// execData executes a non-control instruction across the guarded lanes.
func (ex *exec) execData(blockID int, w *warp, pc int, in isa.Instr, guard uint32, capture bool) error {
	global := ex.l.Global
	for m := guard; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		a := w.regs[in.SrcA][lane]
		var b uint32
		if in.UseImmB {
			b = uint32(in.Imm)
		} else {
			b = w.regs[in.SrcB][lane]
		}
		c := w.regs[in.SrcC][lane]
		if capture {
			ex.ev.srcA[lane], ex.ev.srcB[lane] = a, b
		}

		var d uint32
		switch in.Op {
		case isa.OpFADD:
			d = fp32.AddBits(a, b)
		case isa.OpFMUL:
			d = fp32.MulBits(a, b)
		case isa.OpFFMA:
			d = fp32.FmaBits(a, b, c)
		case isa.OpIADD:
			d = a + b
		case isa.OpIMUL:
			d = uint32(int32(a) * int32(b))
		case isa.OpIMAD:
			d = uint32(int32(a)*int32(b) + int32(c))
		case isa.OpFSIN:
			d = math.Float32bits(fp32.Sin(math.Float32frombits(a)))
		case isa.OpFEXP:
			d = math.Float32bits(fp32.Exp(math.Float32frombits(a)))
		case isa.OpFRCP:
			d = math.Float32bits(fp32.Rcp(math.Float32frombits(a)))
		case isa.OpFRSQRT:
			d = math.Float32bits(fp32.Rsqrt(math.Float32frombits(a)))
		case isa.OpGLD:
			addr := int64(int32(a)) + int64(in.Imm)
			if addr < 0 || addr >= int64(len(global)) {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBadAddress}
			}
			d = global[addr]
			if mt := ex.l.Mem; mt != nil {
				mt.load(addr, d, lane)
			}
		case isa.OpGST:
			addr := int64(int32(a)) + int64(in.Imm)
			if addr < 0 || addr >= int64(len(global)) {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBadAddress}
			}
			if mt := ex.l.Mem; mt != nil {
				mt.store(addr, lane)
			}
			global[addr] = c
			d = c
		case isa.OpSLD:
			addr := int64(int32(a)) + int64(in.Imm)
			if addr < 0 || addr >= int64(len(ex.shared)) {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBadAddress}
			}
			d = ex.shared[addr]
		case isa.OpSST:
			addr := int64(int32(a)) + int64(in.Imm)
			if addr < 0 || addr >= int64(len(ex.shared)) {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBadAddress}
			}
			ex.shared[addr] = c
			d = c
		case isa.OpISET:
			if in.Cmp.EvalI(int32(a), int32(b)) {
				d = 0xFFFFFFFF
			}
		case isa.OpISETP:
			w.setPredLane(in.PDst, lane, in.Cmp.EvalI(int32(a), int32(b)))
			continue
		case isa.OpFSETP:
			w.setPredLane(in.PDst, lane,
				in.Cmp.EvalF(math.Float32frombits(a), math.Float32frombits(b)))
			continue
		case isa.OpMOV:
			d = a
		case isa.OpMOV32I:
			d = uint32(in.Imm)
		case isa.OpSEL:
			if w.predLane(in.PDst, lane) {
				d = a
			} else {
				d = b
			}
		case isa.OpS2R:
			d = ex.specialReg(isa.SpecialReg(in.Imm), blockID, w.id, lane)
		case isa.OpSHL:
			d = a << (b & 31)
		case isa.OpSHR:
			d = a >> (b & 31)
		case isa.OpAND:
			d = a & b
		case isa.OpOR:
			d = a | b
		case isa.OpXOR:
			d = a ^ b
		case isa.OpIMNMX:
			x, y := int32(a), int32(b)
			if w.predLane(in.PDst, lane) == (x < y) {
				d = uint32(x)
			} else {
				d = uint32(y)
			}
		case isa.OpFMNMX:
			fa, fb := math.Float32frombits(a), math.Float32frombits(b)
			if w.predLane(in.PDst, lane) {
				d = math.Float32bits(fp32.Min(fa, fb))
			} else {
				d = math.Float32bits(fp32.Max(fa, fb))
			}
		case isa.OpF2I:
			d = uint32(fp32.F2I(math.Float32frombits(a)))
		case isa.OpI2F:
			d = math.Float32bits(fp32.I2F(int32(a)))
		default:
			return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrIllegalInstr}
		}

		if in.Op.HasDst() {
			w.setReg(in.Dst, lane, d)
		}
		if capture {
			ex.ev.dst[lane] = d
		}
	}
	return nil
}
