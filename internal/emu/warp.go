package emu

import (
	"math"
	"math/bits"
	"sync"

	"gpufi/internal/fp32"
	"gpufi/internal/isa"
)

// stackEntry is one level of the PDOM (immediate post-dominator)
// reconvergence stack. The top entry is the executing path: its nextPC and
// mask define what runs next; when nextPC reaches reconv the entry pops and
// the parent path resumes.
type stackEntry struct {
	nextPC int
	mask   uint32
	reconv int // -1 when the entry has no reconvergence point
}

type warp struct {
	id    int
	stack []stackEntry
	regs  [isa.NumRegs][WarpSize]uint32
	preds [isa.NumPreds]uint32 // per-lane bit masks
	live  uint32               // non-exited lanes
	atBar bool
	done  bool
}

// warpPool recycles warp state across blocks and launches: a warp's
// register file is ~8 KB, and a campaign's replays would otherwise
// allocate one per warp per block per launch. newWarp resets recycled
// warps in place to exactly the fresh-warp state, so pooling is
// invisible to execution.
var warpPool = sync.Pool{New: func() any { return new(warp) }}

func newWarp(id, lanes int) *warp {
	w := warpPool.Get().(*warp)
	mask := uint32(0xFFFFFFFF)
	if lanes < WarpSize {
		mask = 1<<uint(lanes) - 1
	}
	w.id = id
	w.live = mask
	w.atBar = false
	w.done = false
	w.regs = [isa.NumRegs][WarpSize]uint32{}
	w.preds = [isa.NumPreds]uint32{}
	w.preds[isa.PT] = 0xFFFFFFFF
	w.stack = append(w.stack[:0], stackEntry{nextPC: 0, mask: mask, reconv: -1})
	return w
}

// releaseWarps returns block-final warps to the pool. Callers must not
// retain any reference: snapshots are safe because they clone.
func releaseWarps(warps []*warp) {
	for _, w := range warps {
		warpPool.Put(w)
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

func (w *warp) setReg(r isa.Reg, lane int, v uint32) {
	if r == isa.RZ {
		return
	}
	w.regs[r][lane] = v
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

	hooks := &ex.l.Hooks
	prepared := false
	if hooks.Pre != nil && ex.armed && guard != 0 {
		ex.prepareEvent(blockID, w, pc, in, guard)
		prepared = true
		hooks.Pre(&ex.ev)
		guard = active & w.evalPred(in.Guard) // the hook may have changed it
	}

	n := uint64(bits.OnesCount32(guard))
	ex.res.DynThreadInstrs += n
	ex.res.PerOpcode[in.Op] += n
	if ex.res.DynThreadInstrs > ex.budget {
		return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrWatchdog}
	}

	capture := hooks.Post != nil && ex.armed && guard != 0
	if capture {
		if prepared {
			ex.ev.Active = guard // Pre may have changed the guard; the rest holds
		} else {
			ex.prepareEvent(blockID, w, pc, in, guard)
		}
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
		hooks.Post(&ex.ev)
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
			ex.ev.srcA[lane], ex.ev.srcB[lane], ex.ev.srcC[lane] = a, b, c
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
			if mt := ex.l.Mem; mt != nil && mt.Reads != nil {
				mt.Reads[addr>>6] |= 1 << (uint(addr) & 63)
			}
			d = global[addr]
		case isa.OpGST:
			addr := int64(int32(a)) + int64(in.Imm)
			if addr < 0 || addr >= int64(len(global)) {
				return &LaunchError{Block: blockID, Warp: w.id, PC: pc, Err: ErrBadAddress}
			}
			if mt := ex.l.Mem; mt != nil {
				mt.store(addr)
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

func (ex *exec) specialReg(sr isa.SpecialReg, blockID, warpID, lane int) uint32 {
	switch sr {
	case isa.SRTid:
		return uint32(warpID*WarpSize + lane)
	case isa.SRCtaid:
		return uint32(blockID)
	case isa.SRNtid:
		return uint32(ex.l.Block)
	case isa.SRNctaid:
		return uint32(ex.l.Grid)
	case isa.SRLane:
		return uint32(lane)
	case isa.SRWarpID:
		return uint32(warpID)
	default:
		return 0
	}
}
