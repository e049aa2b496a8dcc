package replay

// Deprecated: no engine builds or reads this index (swfi simulates every
// injection); kept for bench/'s two liveness probes (ROADMAP 1(a)/2(c)).
//
// Dead-site liveness: the software analog of internal/rtl's DeadAt
// index, at instruction granularity. During the golden recording the
// Recorder can additionally capture the executed event stream; a backward
// dead-end-closure scan then classifies every countable (injectable)
// dynamic thread-instruction as dead or live:
//
//   - An instruction's output site (destination register lane, or stored
//     memory word) is dead when nothing that still matters reads it before
//     it is overwritten or the run ends.
//   - "Still matters" is transitive: a read by an instruction whose own
//     output is dead does not keep the value alive. Reads that feed
//     control flow (ISETP/FSETP inputs, and through them every guard and
//     branch) or addressing (the address operand of loads and stores) are
//     absolutely live — corrupting them could change control flow or trap,
//     so they terminate the closure.
//
// A fault injected into a dead site provably leaves the final output
// bit-identical to the golden run (and cannot crash or hang: addresses and
// control inputs are never dead). Per-site records (opcode, golden output
// bits, operand magnitude) describe the corruption draw an executed
// injection would make there.

import (
	"math/bits"

	"gpufi/internal/emu"
	"gpufi/internal/isa"
)

// maxWarpsPerBlock bounds warps per block (MaxBlockThreads / WarpSize).
const maxWarpsPerBlock = emu.MaxBlockThreads / emu.WarpSize

// SiteInfo describes one dead injectable site: what a fault injector
// needs to reproduce — without simulating — the corruption it would have
// applied there.
type SiteInfo struct {
	Op      isa.Opcode
	OldBits uint32  // the golden output value at the site
	Mag     float64 // operand magnitude (for syndrome range selection)
}

// Liveness is the sealed dead-site index over a trace's countable
// coordinates. Immutable after ComputeLiveness, safe for concurrent use.
type Liveness struct {
	dead []uint64 // bitmap over countable indices
	cum  []uint32 // prefix popcounts of dead, per 64-bit word
	info []SiteInfo
	n    uint64 // countable total the index covers
}

// DeadSites returns the number of dead countable sites.
func (lv *Liveness) DeadSites() uint64 {
	if lv == nil || len(lv.cum) == 0 {
		return 0
	}
	last := len(lv.dead) - 1
	return uint64(lv.cum[last]) + uint64(bits.OnesCount64(lv.dead[last]))
}

// Sites returns the countable total the index covers; 0 for a nil index
// (a trace recorded without CaptureLiveness).
func (lv *Liveness) Sites() uint64 {
	if lv == nil {
		return 0
	}
	return lv.n
}

// liveEv is one captured warp-level instruction of the golden run.
type liveEv struct {
	op      isa.Opcode
	dst     uint8
	srcA    uint8
	srcB    uint8
	srcC    uint8
	useImmB bool
	warp    uint8
	block   int32
	active  uint32
	cbase   uint64    // countable index of this event's first active lane
	addrs   []int32   // per active lane (ascending): word address, mem ops only
	vals    []uint32  // per active lane: output value, countable ops only
	mags    []float64 // per active lane: operand magnitude, countable ops only
}

// liveCapture accumulates the event stream across launches.
type liveCapture struct {
	events []liveEv
	marks  []int // event count at each launch end
	ccount uint64
	shMax  int
	mag    func(ev *emu.Event, lane int) float64
}

// CaptureLiveness arms the Recorder to capture the event stream needed by
// ComputeLiveness. Must be called before the recorded execution starts.
// mag computes an instruction's operand magnitude for a lane (the
// injector's syndrome range input); it is stored per countable site so
// pruned faults reproduce the injector's exact corruption draws.
func (r *Recorder) CaptureLiveness(mag func(ev *emu.Event, lane int) float64) {
	if r.tr.count == nil {
		panic("replay: CaptureLiveness requires a countable predicate")
	}
	lvc := &liveCapture{mag: mag}
	r.lvc = lvc
	r.capture = func(ev *emu.Event) {
		rec := liveEv{
			op: ev.Instr.Op, dst: uint8(ev.Instr.Dst),
			srcA: uint8(ev.Instr.SrcA), srcB: uint8(ev.Instr.SrcB), srcC: uint8(ev.Instr.SrcC),
			useImmB: ev.Instr.UseImmB, warp: uint8(ev.Warp),
			block: int32(ev.Block), active: ev.Active, cbase: lvc.ccount,
		}
		n := ev.ActiveCount()
		if r.tr.count(rec.op) {
			rec.vals = make([]uint32, 0, n)
			rec.mags = make([]float64, 0, n)
			for m := ev.Active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				v, _ := ev.DstValue(lane)
				rec.vals = append(rec.vals, v)
				if lvc.mag != nil {
					rec.mags = append(rec.mags, lvc.mag(ev, lane))
				} else {
					rec.mags = append(rec.mags, 0)
				}
			}
			lvc.ccount += uint64(n)
		}
		switch rec.op {
		case isa.OpGLD, isa.OpGST, isa.OpSLD, isa.OpSST:
			rec.addrs = make([]int32, 0, n)
			for m := ev.Active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				addr := int64(int32(ev.SrcA(lane))) + int64(ev.Instr.Imm)
				rec.addrs = append(rec.addrs, int32(addr))
			}
		}
		lvc.events = append(lvc.events, rec)
	}
}

// endLaunch marks a launch boundary in the captured stream.
func (r *Recorder) endLaunch(l *emu.Launch) {
	if r.lvc == nil {
		return
	}
	if l.SharedWords > r.lvc.shMax {
		r.lvc.shMax = l.SharedWords
	}
	r.lvc.marks = append(r.lvc.marks, len(r.lvc.events))
}

// ComputeLiveness runs the backward dead-end closure over the captured
// stream, attaches the resulting index to the trace, and releases the
// capture. boundaryAllLive treats the whole arena as live at every launch
// boundary — required when host code may read arbitrary arena words
// between launches (HPC workloads). With boundaryAllLive false, only
// outOff..outOff+outWords is live at the end of the run and launch
// boundaries are transparent — sound only when host code between launches
// does not read the arena (the CNN pipeline).
func (r *Recorder) ComputeLiveness(outOff, outWords int, boundaryAllLive bool) {
	lvc := r.lvc
	if lvc == nil {
		return
	}
	r.lvc, r.capture = nil, nil
	tr := r.tr
	if lvc.ccount != tr.Count {
		panic("replay: liveness capture disagrees with trace countable total")
	}

	dead := make([]uint64, (tr.Count+63)/64)
	gL := make([]bool, tr.Words)
	if boundaryAllLive || outWords <= 0 {
		for i := range gL {
			gL[i] = true
		}
	} else {
		for i := outOff; i < outOff+outWords && i < len(gL); i++ {
			gL[i] = true
		}
	}
	shL := make([]bool, lvc.shMax)
	var regL [maxWarpsPerBlock][isa.NumRegs]uint32

	sc := &liveScan{count: tr.count, dead: dead, gL: gL, shL: shL, regL: &regL}
	launch := len(lvc.marks) - 1
	curBlock := int32(-1)
	events := lvc.events
	for e := len(events) - 1; e >= 0; e-- {
		for launch > 0 && e < lvc.marks[launch-1] {
			launch--
			curBlock = -1
			if boundaryAllLive {
				for i := range gL {
					gL[i] = true
				}
			}
		}
		ev := &events[e]
		if ev.block != curBlock {
			// Registers and shared memory die at block boundaries: each
			// block starts with fresh warps and zeroed shared memory.
			for w := range regL {
				for reg := range regL[w] {
					regL[w][reg] = 0
				}
			}
			for i := range shL {
				shL[i] = false
			}
			curBlock = ev.block
		}
		sc.processEvent(ev)
	}

	lv := &Liveness{dead: dead, n: tr.Count}
	lv.cum = make([]uint32, len(dead))
	var run uint32
	for k, m := range dead {
		lv.cum[k] = run
		run += uint32(bits.OnesCount64(m))
	}
	lv.info = make([]SiteInfo, run)
	for e := range events {
		ev := &events[e]
		if ev.vals == nil {
			continue
		}
		for j := range ev.vals {
			idx := ev.cbase + uint64(j)
			k := idx >> 6
			bit := uint64(1) << (idx & 63)
			if dead[k]&bit == 0 {
				continue
			}
			rank := uint64(lv.cum[k]) + uint64(bits.OnesCount64(dead[k]&(bit-1)))
			lv.info[rank] = SiteInfo{Op: ev.op, OldBits: ev.vals[j], Mag: ev.mags[j]}
		}
	}
	tr.Live = lv
}

// liveScan is the backward dead-end-closure state.
type liveScan struct {
	count func(isa.Opcode) bool
	dead  []uint64
	gL    []bool
	shL   []bool
	regL  *[maxWarpsPerBlock][isa.NumRegs]uint32
}

func (sc *liveScan) markDead(idx uint64) { sc.dead[idx>>6] |= 1 << (idx & 63) }

// processEvent applies one event's backward transfer function. Processing
// order within an event matters: output-site verdicts read the post-event
// live state, then the output site is killed, then the event's reads are
// added — data reads propagate the output's own liveness lanes (the
// transitive dead-end closure), address and predicate-input reads are
// absolutely live.
func (sc *liveScan) processEvent(ev *liveEv) {
	op := ev.op
	warp := int(ev.warp)
	active := ev.active
	regL := sc.regL
	inj := sc.count(op)

	abs := func(r uint8) { // absolutely live for the active lanes
		if r != uint8(isa.RZ) {
			regL[warp][r] |= active
		}
	}
	data := func(r uint8, p uint32) { // live exactly for the lanes in p
		if r != uint8(isa.RZ) {
			regL[warp][r] |= p
		}
	}

	switch op {
	case isa.OpBRA, isa.OpBAR, isa.OpNOP, isa.OpEXIT:
		return
	case isa.OpISETP, isa.OpFSETP:
		// Predicate writers feed guards and branches: their inputs are
		// control-critical, so they terminate the dead-end closure. (This
		// is also why predicate reads elsewhere propagate nothing — a
		// predicate can never carry corruption from a dead-site fault.)
		abs(ev.srcA)
		if !ev.useImmB {
			abs(ev.srcB)
		}
		return
	case isa.OpGST, isa.OpSST:
		mem := sc.gL
		if op == isa.OpSST {
			mem = sc.shL
		}
		// Store-site verdicts use the post-event live state for every
		// lane: the injector corrupts the stored word after the whole warp
		// instruction has executed, so the corruption lands regardless of
		// which lane wrote the word last.
		if inj {
			j := 0
			for k, m := 0, active; m != 0; m, k = m&(m-1), k+1 {
				addr := ev.addrs[k]
				if !(addr >= 0 && int(addr) < len(mem) && mem[addr]) {
					sc.markDead(ev.cbase + uint64(j))
				}
				j++
			}
		}
		// Value reads: only the last lane writing each word determines its
		// contents, so only that lane's source register read matters.
		seen := make(map[int32]struct{}, len(ev.addrs))
		for k := len(ev.addrs) - 1; k >= 0; k-- {
			addr := ev.addrs[k]
			if _, ok := seen[addr]; ok {
				continue
			}
			seen[addr] = struct{}{}
			var p uint32
			if addr >= 0 && int(addr) < len(mem) && mem[addr] {
				p = 1 << uint(nthLane(active, k))
			}
			data(ev.srcC, p)
		}
		for _, addr := range ev.addrs {
			if addr >= 0 && int(addr) < len(mem) {
				mem[addr] = false
			}
		}
		abs(ev.srcA) // the address operand is always control-critical
		return
	}

	// Register-destination ops (including loads, ISET, SEL, moves).
	var p uint32 // lanes where the output is live post-event
	if ev.dst != uint8(isa.RZ) {
		p = regL[warp][ev.dst] & active
	}
	if inj {
		j := 0
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			if p>>uint(lane)&1 == 0 {
				sc.markDead(ev.cbase + uint64(j))
			}
			j++
		}
	}
	if ev.dst != uint8(isa.RZ) {
		regL[warp][ev.dst] &^= active
	}

	switch op {
	case isa.OpGLD, isa.OpSLD:
		mem := sc.gL
		if op == isa.OpSLD {
			mem = sc.shL
		}
		abs(ev.srcA)
		k := 0
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			addr := ev.addrs[k]
			k++
			if addr >= 0 && int(addr) < len(mem) && p>>uint(lane)&1 == 1 {
				mem[addr] = true
			}
		}
	case isa.OpMOV32I, isa.OpS2R:
		// no register reads
	case isa.OpFFMA, isa.OpIMAD:
		data(ev.srcA, p)
		if !ev.useImmB {
			data(ev.srcB, p)
		}
		data(ev.srcC, p)
	case isa.OpFSIN, isa.OpFEXP, isa.OpFRCP, isa.OpFRSQRT,
		isa.OpF2I, isa.OpI2F, isa.OpMOV:
		data(ev.srcA, p)
	default:
		// Two-source data ops: FADD FMUL IADD IMUL ISET SEL SHL SHR AND OR
		// XOR IMNMX FMNMX. SEL/IMNMX/FMNMX additionally read a predicate,
		// which can never carry corruption (see ISETP above).
		data(ev.srcA, p)
		if !ev.useImmB {
			data(ev.srcB, p)
		}
	}
}

// nthLane returns the lane index of the n-th (0-based) set bit of active.
func nthLane(active uint32, n int) int {
	for m := active; m != 0; m &= m - 1 {
		if n == 0 {
			return bits.TrailingZeros32(m)
		}
		n--
	}
	return -1
}
