package rtl

import (
	"gpufi/internal/isa"
)

// phaseSched selects the next ready warp (round-robin), resolving SIMT
// reconvergence pops, releasing barriers, and detecting block completion.
// It reports whether the scheduler stalled: no warp ready, the block not
// done, no barrier to release.
//
// A stall is a fixed point of the machine. The cycle leaves the phase
// register at phSched and no warp READY (the scan above drained the ready
// ones to DONE or it would have dispatched), so the next cycle's scan
// finds nothing and writes nothing, the second loop reads the very same
// states, and the same arm is taken again: nothing but the cycle counter
// moves until something outside the model rewrites a state field. Only a
// still-pending injection can (see advance).
func (m *Machine) phaseSched() (stalled bool) {
	sch := m.Sched
	start := int(sch.Get(m.sf.rrptr)) % MaxWarps
	for i := 0; i < MaxWarps; i++ {
		w := (start + i) % MaxWarps
		if sch.Get(m.sf.state[w]) != stReady {
			continue
		}
		if !m.resolveWarp(w) {
			continue // warp drained to DONE
		}
		sch.Set(m.sf.curwarp, uint64(w))
		sch.Set(m.sf.rrptr, uint64((w+1)%MaxWarps))
		sch.Set(m.sf.fpc, sch.Get(m.sf.pc[w]))
		sch.Set(m.sf.fwarp, uint64(w))
		sch.Set(m.sf.maskcache, uint64(m.warpMask[w]))
		m.Pipe.Set(m.pf.ifPC, sch.Get(m.sf.pc[w]))
		m.Pipe.Set(m.pf.ifWarp, uint64(w))
		m.Pipe.Set(m.pf.ifValid, 1)
		m.Pipe.Set(m.pf.ifBlock, uint64(m.curBlock)&0xFF)
		sch.Set(m.sf.phase, phFetch)
		return false
	}

	// No ready warp: barrier release, completion, or stall.
	allDoneOrEmpty, anyBar, anyOther := true, false, false
	for w := 0; w < MaxWarps; w++ {
		switch sch.Get(m.sf.state[w]) {
		case stEmpty, stDone:
		case stAtBar:
			anyBar = true
			allDoneOrEmpty = false
		default:
			anyOther = true
			allDoneOrEmpty = false
		}
	}
	switch {
	case allDoneOrEmpty:
		m.blockDone = true
	case anyBar && !anyOther:
		for w := 0; w < MaxWarps; w++ {
			if sch.Get(m.sf.state[w]) == stAtBar {
				sch.Set(m.sf.state[w], stReady)
			}
		}
		sch.Set(m.sf.barwait, 0)
		sch.Set(m.sf.barmask, 0)
	default:
		// Some warp holds an invalid state encoding: a corrupted state
		// field wedges the scheduler and the watchdog converts the hang
		// into a DUE.
		return true
	}
	return false
}

// resolveWarp pops reconverged or drained SIMT stack levels for warp w,
// returning false when the warp has fully completed.
func (m *Machine) resolveWarp(w int) bool {
	sch := m.Sched
	m.markWarp(w)
	if m.vec != nil && m.vec.hot == nil {
		m.vec.onMaskRead(w)
	}
	for {
		pc := uint32(sch.Get(m.sf.pc[w]))
		rc := uint32(sch.Get(m.sf.reconv[w]))
		if m.warpMask[w] != 0 && !(rc != reconvNone && pc == rc) {
			return true
		}
		depth := int(sch.Get(m.sf.depth[w]))
		if depth == 0 || len(m.stacks[w]) == 0 {
			if m.vec != nil {
				m.vec.onMaskWrite(w, m.warpMask[w])
			}
			sch.Set(m.sf.state[w], stDone)
			m.warpMask[w] = 0
			return false
		}
		if m.vec != nil {
			m.vec.onStackTouch(w)
			m.vec.onMaskWrite(w, m.warpMask[w])
		}
		e := m.stacks[w][len(m.stacks[w])-1]
		m.stacks[w] = m.stacks[w][:len(m.stacks[w])-1]
		sch.Set(m.sf.pc[w], uint64(e.pc))
		m.warpMask[w] = e.mask
		sch.Set(m.sf.reconv[w], uint64(e.reconv))
		sch.Set(m.sf.depth[w], uint64(depth-1))
	}
}

// phaseFetch reads instruction memory at the fetch-stage PC, filling the
// scheduler's per-warp instruction buffer with the control word and the
// pipeline latch with the immediate word.
func (m *Machine) phaseFetch() {
	pc := m.Sched.Get(m.sf.fpc)
	if pc >= uint64(len(m.imem)) {
		m.err = ErrBadPC
		return
	}
	fw := int(m.Sched.Get(m.sf.fwarp)) % MaxWarps
	w := m.imem[pc]
	m.Sched.Set(m.sf.ibuf[fw], w[0])
	m.Sched.Set(m.sf.fparity, w[0]>>32^w[1]>>32&0xFFFFF)
	m.Pipe.Set(m.pf.ifInstrHi, w[1])
	m.Pipe.Set(m.pf.ifEcc, w[0])
	m.Sched.Set(m.sf.phase, phDecode)
}

// phaseDecode decodes the buffered instruction into the ID latches. The
// control word comes from the scheduler's instruction buffer — a fault
// there corrupts the operation for the entire warp.
func (m *Machine) phaseDecode() {
	fw := int(m.Sched.Get(m.sf.fwarp)) % MaxWarps
	word := isa.Word{m.Sched.Get(m.sf.ibuf[fw]), m.Pipe.Get(m.pf.ifInstrHi)}
	in, err := isa.Decode(word)
	if err != nil {
		m.err = ErrIllegalInstr
		return
	}
	pf, p := &m.pf, m.Pipe
	p.Set(pf.idOp, uint64(in.Op))
	p.Set(pf.idDst, uint64(in.Dst))
	p.Set(pf.idSrcA, uint64(in.SrcA))
	p.Set(pf.idSrcB, uint64(in.SrcB))
	p.Set(pf.idSrcC, uint64(in.SrcC))
	p.Set(pf.idGuard, uint64(in.Guard))
	p.Set(pf.idPDst, uint64(in.PDst))
	p.Set(pf.idCmp, uint64(in.Cmp))
	if in.UseImmB {
		p.Set(pf.idUseImm, 1)
	} else {
		p.Set(pf.idUseImm, 0)
	}
	p.Set(pf.idImm, uint64(uint32(in.Imm)))
	p.Set(pf.idTarget, uint64(in.Target))
	p.Set(pf.idReconv, uint64(in.Reconv))
	p.Set(pf.idPC, p.Get(pf.ifPC))
	p.Set(pf.idWarp, p.Get(pf.ifWarp))
	p.Set(pf.idValid, p.Get(pf.ifValid))
	p.Set(pf.idMask, m.Sched.Get(m.sf.maskcache))
	m.Sched.Set(m.sf.phase, phCollect)
}

// phaseCollect stages predicates, evaluates the guard, reads the register
// file into the operand collector and routes the instruction.
func (m *Machine) phaseCollect() {
	pf, p := &m.pf, m.Pipe
	w := int(p.Get(pf.idWarp)) % MaxWarps
	op := isa.Opcode(p.Get(pf.idOp))

	// Predicate staging (guard evaluation uses bank A; per-lane selector
	// predicates for SEL/IMNMX/FMNMX use bank B).
	if m.vec != nil && m.vec.hot == nil {
		m.vec.onPredRead(w)
	}
	for pr := 0; pr < 8; pr++ {
		p.Set(pf.predA[pr], uint64(m.preds[w][pr]))
		p.Set(pf.predB[pr], uint64(m.preds[w][pr]))
	}
	guardPred := isa.Pred(p.Get(pf.idGuard))
	pm := uint32(p.Get(pf.predA[guardPred.Index()]))
	if guardPred.Neg() {
		pm = ^pm
	}
	cw := int(m.Sched.Get(m.sf.curwarp)) % MaxWarps
	guard := pm & uint32(p.Get(pf.idMask))
	// The thread-enable clusters gate execution lanes; warp retirement
	// (EXIT) is warp-level control and ignores them, so a corrupted
	// enable bit silently drops a cluster's results (a multi-thread SDC,
	// §V-B) instead of wedging the warp.
	if op != isa.OpEXIT {
		guard &= groupExpand(uint8(m.Sched.Get(m.sf.groupen[cw])))
	}

	imm := uint32(p.Get(pf.idImm))
	mem := op.IsMemory()
	// Memory instructions are processed warp-wide by the LSU, so their
	// operands (addresses and store data) are collected here; arithmetic
	// operands are read per 8-lane group at issue time, matching the
	// short residency of real pipeline stage latches.
	if mem {
		srcA := isa.Reg(p.Get(pf.idSrcA)) % isa.NumRegs
		srcB := isa.Reg(p.Get(pf.idSrcB)) % isa.NumRegs
		srcC := isa.Reg(p.Get(pf.idSrcC)) % isa.NumRegs
		useImm := p.Get(pf.idUseImm) == 1
		if m.vec != nil && m.vec.hot == nil {
			m.vec.onRegRead(w, int(srcA))
			m.vec.onRegRead(w, int(srcC))
			if !useImm {
				m.vec.onRegRead(w, int(srcB))
			}
		}
		r := m.page(w)
		for lane := 0; lane < WarpSize; lane++ {
			b := imm
			if !useImm {
				b = r[srcB][lane]
			}
			p.Set(pf.colbA[lane], uint64(r[srcA][lane]))
			p.Set(pf.colbB[lane], uint64(b))
			p.Set(pf.colbC[lane], uint64(r[srcC][lane]))
		}
		p.Set(pf.colbValid, uint64(guard))
		p.Set(pf.colbOp, uint64(op))
		p.Set(pf.colbDst, p.Get(pf.idDst))
		p.Set(pf.colbWarp, uint64(w))
		p.Set(pf.colbPDst, p.Get(pf.idPDst))
		p.Set(pf.colbGuard, p.Get(pf.idGuard))
		p.Set(pf.colbImm, uint64(imm))
		p.Set(pf.colbMask, p.Get(pf.idMask))
	} else {
		p.Set(pf.colaValid, uint64(guard))
		p.Set(pf.colaOp, uint64(op))
		p.Set(pf.colaDst, p.Get(pf.idDst))
		p.Set(pf.colaWarp, uint64(w))
		p.Set(pf.colaPDst, p.Get(pf.idPDst))
		p.Set(pf.colaGuard, p.Get(pf.idGuard))
		p.Set(pf.colaImm, uint64(imm))
		p.Set(pf.colaMask, p.Get(pf.idMask))
	}

	switch {
	case op == isa.OpBRA:
		p.Set(pf.brTaken, uint64(guard))
		p.Set(pf.brNtaken, uint64(uint32(p.Get(pf.idMask))&^guard))
		p.Set(pf.brTarget, p.Get(pf.idTarget))
		p.Set(pf.brReconv, p.Get(pf.idReconv))
		p.Set(pf.brValid, 1)
		m.Sched.Set(m.sf.phase, phCommit)
	case op == isa.OpEXIT || op == isa.OpBAR || op == isa.OpNOP:
		m.Sched.Set(m.sf.phase, phCommit)
	case mem:
		m.Sched.Set(m.sf.phase, phMemAddr)
	default:
		m.Sched.Set(m.sf.group, 0)
		m.Sched.Set(m.sf.phase, phIssue)
	}
}

// groupExpand widens the scheduler's 8-bit thread-enable clusters to a
// 32-lane mask (bit i enables lanes 4i..4i+3).
func groupExpand(en uint8) uint32 {
	var mask uint32
	for i := 0; i < 8; i++ {
		if en>>uint(i)&1 == 1 {
			mask |= 0xF << uint(4*i)
		}
	}
	return mask
}

func (m *Machine) specialValue(sr isa.SpecialReg, slot uint32, lane int) uint32 {
	switch sr {
	case isa.SRTid:
		return slot*WarpSize + uint32(lane)
	case isa.SRCtaid:
		return uint32(m.curBlock)
	case isa.SRNtid:
		return uint32(m.block)
	case isa.SRNctaid:
		return uint32(m.grid)
	case isa.SRLane:
		return uint32(lane)
	case isa.SRWarpID:
		return slot
	default:
		return 0
	}
}

// phaseIssue reads one 8-lane group's operands from the register file
// through the collector into the execute input registers and primes the
// functional unit.
func (m *Machine) phaseIssue() {
	pf, p := &m.pf, m.Pipe
	g := int(m.Sched.Get(m.sf.group)) & 3
	valid := uint32(p.Get(pf.colaValid))
	sub := valid >> uint(8*g) & 0xFF

	w := int(p.Get(pf.colaWarp)) % MaxWarps
	op := isa.Opcode(p.Get(pf.colaOp))
	srcA := isa.Reg(p.Get(pf.idSrcA)) % isa.NumRegs
	srcB := isa.Reg(p.Get(pf.idSrcB)) % isa.NumRegs
	srcC := isa.Reg(p.Get(pf.idSrcC)) % isa.NumRegs
	useImm := p.Get(pf.idUseImm) == 1
	imm := uint32(p.Get(pf.colaImm))
	slot := uint32(m.Sched.Get(m.sf.slot[w]))
	if m.vec != nil && m.vec.hot == nil {
		m.vec.onRegRead(w, int(srcA))
		m.vec.onRegRead(w, int(srcC))
		if op != isa.OpS2R && op != isa.OpMOV32I && !useImm {
			m.vec.onRegRead(w, int(srcB))
		}
	}
	r := m.page(w)
	for i := 0; i < NumLanes; i++ {
		lane := 8*g + i
		var b uint32
		switch {
		case op == isa.OpS2R:
			b = m.specialValue(isa.SpecialReg(imm), slot, lane)
		case op == isa.OpMOV32I || useImm:
			b = imm
		default:
			b = r[srcB][lane]
		}
		p.Set(pf.colaA[lane], uint64(r[srcA][lane]))
		p.Set(pf.colaB[lane], uint64(b))
		p.Set(pf.colaC[lane], uint64(r[srcC][lane]))
		p.Set(pf.exinA[i], p.Get(pf.colaA[lane]))
		p.Set(pf.exinB[i], p.Get(pf.colaB[lane]))
		p.Set(pf.exinC[i], p.Get(pf.colaC[lane]))
	}
	p.Set(pf.issGroup, uint64(g))
	p.Set(pf.issSubmask, uint64(sub))
	p.Set(pf.issOp, p.Get(pf.colaOp))
	p.Set(pf.issDst, p.Get(pf.colaDst))
	p.Set(pf.issWarp, p.Get(pf.colaWarp))
	p.Set(pf.issValid, 1)
	p.Set(pf.issPDst, p.Get(pf.colaPDst))
	p.Set(pf.issCmp, p.Get(pf.idCmp))
	p.Set(pf.issImm, p.Get(pf.colaImm))
	// Record the issue history (control bookkeeping).
	hist := uint32(p.Get(pf.grpHist))
	p.Set(pf.grpHist, uint64(hist<<8|sub))
	m.Sched.Set(m.sf.phase, phExec)
}

// phaseExec advances the functional unit executing the issued group.
func (m *Machine) phaseExec() {
	op := isa.Opcode(m.Pipe.Get(m.pf.issOp))
	switch routeUnit(op) {
	case isa.UnitFP32:
		m.stepFP32()
	case isa.UnitSFU:
		m.stepSFU()
	default:
		m.stepINT()
	}
}

// routeUnit maps an opcode to the RTL execution unit. Unlike the profiling
// classification in isa, the RTL model routes comparisons, conversions and
// min/max through the integer lane ALU.
func routeUnit(op isa.Opcode) isa.Unit {
	switch op {
	case isa.OpFADD, isa.OpFMUL, isa.OpFFMA:
		return isa.UnitFP32
	case isa.OpFSIN, isa.OpFEXP, isa.OpFRCP, isa.OpFRSQRT:
		return isa.UnitSFU
	default:
		return isa.UnitINT
	}
}

// phaseGroupWB copies the execute output latch into the writeback buffer
// and either issues the next group or proceeds to writeback.
func (m *Machine) phaseGroupWB() {
	pf, p := &m.pf, m.Pipe
	g := int(m.Sched.Get(m.sf.group)) & 3
	sub := uint32(p.Get(pf.issSubmask))
	for i := 0; i < NumLanes; i++ {
		if sub>>uint(i)&1 == 1 {
			p.Set(pf.wbRes[8*g+i], p.Get(pf.exout[i]))
		}
	}
	if g == NumGroups-1 {
		op := isa.Opcode(p.Get(pf.issOp))
		p.Set(pf.wbWarp, p.Get(pf.colaWarp))
		p.Set(pf.wbDst, p.Get(pf.colaDst))
		p.Set(pf.wbMask, p.Get(pf.colaValid))
		p.Set(pf.wbValid, 1)
		if op.SetsPred() {
			p.Set(pf.wbIsPred, 1)
		} else {
			p.Set(pf.wbIsPred, 0)
		}
		p.Set(pf.wbPDst, p.Get(pf.colaPDst))
		p.Set(pf.wbPC, p.Get(pf.idPC))
		m.Sched.Set(m.sf.phase, phWriteback)
	} else {
		m.Sched.Set(m.sf.group, uint64(g+1))
		m.Sched.Set(m.sf.phase, phIssue)
	}
}

// phaseMemAddr generates per-lane addresses in the LSU buffer.
func (m *Machine) phaseMemAddr() {
	pf, p := &m.pf, m.Pipe
	valid := uint32(p.Get(pf.colbValid))
	imm := int32(uint32(p.Get(pf.colbImm)))
	for lane := 0; lane < WarpSize; lane++ {
		if valid>>uint(lane)&1 == 0 {
			continue
		}
		base := int32(uint32(p.Get(pf.colbA[lane])))
		p.Set(pf.lsuAddr[lane], uint64(uint32(base+imm)))
	}
	op := isa.Opcode(p.Get(pf.colbOp))
	var code uint64
	switch op {
	case isa.OpGLD:
		code = 0
	case isa.OpGST:
		code = 1
	case isa.OpSLD:
		code = 2
	default:
		code = 3
	}
	p.Set(pf.lsuValid, uint64(valid))
	p.Set(pf.lsuOp, code)
	p.Set(pf.lsuWarp, p.Get(pf.colbWarp))
	p.Set(pf.lsuImm, uint64(uint32(imm)))
	p.Set(pf.lsuAValid, uint64(valid))
	m.Sched.Set(m.sf.phase, phMemAccess)
}

// phaseMemAccess performs the memory transaction.
func (m *Machine) phaseMemAccess() {
	pf, p := &m.pf, m.Pipe
	valid := uint32(p.Get(pf.lsuValid)) & uint32(p.Get(pf.lsuAValid))
	code := p.Get(pf.lsuOp)
	mem := m.global
	if code >= 2 {
		mem = m.shared
	}
	isStore := code == 1 || code == 3
	for lane := 0; lane < WarpSize; lane++ {
		if valid>>uint(lane)&1 == 0 {
			continue
		}
		addr := int64(int32(uint32(p.Get(pf.lsuAddr[lane]))))
		if addr < 0 || addr >= int64(len(mem)) {
			m.err = ErrBadAddress
			return
		}
		if isStore {
			if m.vec != nil {
				m.vec.onMemWrite(code >= 2, int(addr), mem[addr])
			}
			mem[addr] = uint32(p.Get(pf.colbC[lane]))
		} else {
			if m.vec != nil && m.vec.hot == nil {
				m.vec.onMemRead(code >= 2, int(addr))
			}
			p.Set(pf.wbRes[lane], uint64(mem[addr]))
		}
	}
	if isStore {
		p.Set(pf.wbValid, 0)
		m.Sched.Set(m.sf.phase, phCommit)
		return
	}
	p.Set(pf.wbWarp, p.Get(pf.colbWarp))
	p.Set(pf.wbDst, p.Get(pf.colbDst))
	p.Set(pf.wbMask, uint64(valid))
	p.Set(pf.wbValid, 1)
	p.Set(pf.wbIsPred, 0)
	m.Sched.Set(m.sf.phase, phWriteback)
}

// phaseWriteback commits the writeback buffer to the register or predicate
// file.
func (m *Machine) phaseWriteback() {
	pf, p := &m.pf, m.Pipe
	if p.Get(pf.wbValid) == 1 {
		w := int(p.Get(pf.wbWarp)) % MaxWarps
		m.markWarp(w)
		dst := isa.Reg(p.Get(pf.wbDst)) % isa.NumRegs
		mask := uint32(p.Get(pf.wbMask))
		isPred := p.Get(pf.wbIsPred) == 1
		pdst := isa.Pred(p.Get(pf.wbPDst))
		var r *regPage
		if !isPred && dst != isa.RZ && mask != 0 {
			m.markReg(int(dst))
			r = m.wpage(w)
		}
		for lane := 0; lane < WarpSize; lane++ {
			if mask>>uint(lane)&1 == 0 {
				continue
			}
			v := uint32(p.Get(pf.wbRes[lane]))
			if isPred {
				m.setPred(w, pdst, lane, v&1 == 1)
			} else if dst != isa.RZ {
				if m.vec != nil {
					m.vec.onRegWrite(w, int(dst), lane, r[dst][lane])
				}
				r[dst][lane] = v
			}
		}
	}
	m.Sched.Set(m.sf.phase, phCommit)
}

func (m *Machine) setPred(w int, pd isa.Pred, lane int, v bool) {
	idx := pd.Index()
	if idx == isa.PT {
		return
	}
	if m.vec != nil {
		// A predicate write is a read-modify-write of the predicate word,
		// so it both triggers parked lanes and logs the old word.
		m.vec.onPredWrite(w, int(idx), m.preds[w][idx])
	}
	bit := uint32(1) << uint(lane)
	if v != pd.Neg() {
		m.preds[w][idx] |= bit
	} else {
		m.preds[w][idx] &^= bit
	}
}

// phaseCommit retires the instruction: branch resolution, exits, barriers
// and the PC update. The warp-table row to update is selected by the
// scheduler's current-warp pointer — corrupting it teleports another
// warp's control flow, a whole-warp corruption mode (§V-B).
func (m *Machine) phaseCommit() {
	pf, p := &m.pf, m.Pipe
	sch := m.Sched
	w := int(sch.Get(m.sf.curwarp)) % MaxWarps
	m.markWarp(w)
	if m.vec != nil && m.vec.hot == nil {
		m.vec.onMaskRead(w)
	}
	op := isa.Opcode(p.Get(pf.idOp))
	pcNext := uint32(p.Get(pf.idPC)) + 1

	switch op {
	case isa.OpBRA:
		taken := uint32(p.Get(pf.brTaken))
		ntaken := uint32(p.Get(pf.brNtaken))
		target := uint32(p.Get(pf.brTarget))
		rc := uint32(p.Get(pf.brReconv))
		switch {
		case taken == 0:
			sch.Set(m.sf.pc[w], uint64(pcNext))
		case ntaken == 0:
			sch.Set(m.sf.pc[w], uint64(target))
		default:
			if rc == 0 {
				m.err = ErrBadStack
				return
			}
			depth := int(sch.Get(m.sf.depth[w]))
			if depth+2 >= 1<<5 {
				m.err = ErrBadStack
				return
			}
			curMask := m.warpMask[w]
			curReconv := uint32(sch.Get(m.sf.reconv[w]))
			if m.vec != nil {
				m.vec.onStackTouch(w)
				m.vec.onMaskWrite(w, curMask)
			}
			m.stacks[w] = append(m.stacks[w],
				simtEntry{pc: rc, mask: curMask, reconv: curReconv},
				simtEntry{pc: pcNext, mask: ntaken, reconv: rc},
			)
			sch.Set(m.sf.depth[w], uint64(depth+2))
			sch.Set(m.sf.pc[w], uint64(target))
			m.warpMask[w] = taken
			sch.Set(m.sf.reconv[w], uint64(rc))
		}
	case isa.OpEXIT:
		guard := uint32(p.Get(pf.colaValid))
		if m.vec != nil {
			m.vec.onMaskWrite(w, m.warpMask[w])
			m.vec.onStackTouch(w)
		}
		m.warpMask[w] &^= guard
		for i := range m.stacks[w] {
			m.stacks[w][i].mask &^= guard
		}
		sch.Set(m.sf.pc[w], uint64(pcNext))
	case isa.OpBAR:
		guard := uint32(p.Get(pf.colaValid))
		mask := m.warpMask[w]
		if sch.Get(m.sf.depth[w]) != 0 || guard != mask {
			m.err = ErrBadBarrier
			return
		}
		sch.Set(m.sf.state[w], stAtBar)
		sch.Set(m.sf.barwait, sch.Get(m.sf.barwait)+1)
		sch.Set(m.sf.barmask, sch.Get(m.sf.barmask)|1<<uint(w))
		sch.Set(m.sf.pc[w], uint64(pcNext))
	default:
		sch.Set(m.sf.pc[w], uint64(pcNext))
	}
	sch.Set(m.sf.phase, phSched)
}
