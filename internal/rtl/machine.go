package rtl

import (
	"errors"
	"fmt"
	"sync"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// RTL failure modes, classified as DUEs by the injection framework.
var (
	ErrIllegalInstr = errors.New("rtl: illegal instruction")
	ErrBadPC        = errors.New("rtl: program counter out of range")
	ErrBadAddress   = errors.New("rtl: memory access out of range")
	ErrWatchdog     = errors.New("rtl: watchdog expired (hang)")
	ErrBadStack     = errors.New("rtl: SIMT stack corruption")
	ErrBadBarrier   = errors.New("rtl: barrier reached by diverged warp")
	ErrBadLaunch    = errors.New("rtl: invalid launch configuration")
)

// reconvNone is the "no reconvergence point" sentinel in the 16-bit
// scheduler reconv field.
const reconvNone = 0xFFFF

// Fault is one single-transient injection: flip bit Bit of module Module
// at the start of cycle Cycle.
type Fault struct {
	Module faults.Module
	Bit    int
	Cycle  uint64
}

// simtEntry is a saved SIMT stack level (kept in RAM below the cached
// top-of-stack, which lives in scheduler flip-flops).
type simtEntry struct {
	pc     uint32
	mask   uint32
	reconv uint32
}

// Machine is the RTL streaming-multiprocessor model. Its flip-flop
// state is six modules' words; of its register file it holds only the
// pages of the warps a run wrote.
type Machine struct {
	// Flip-flop state: the injection targets of Table I.
	Sched  *State
	Pipe   *State
	FP32   *State
	INT    *State
	SFU    *State
	SFUCtl *State

	fieldHandles

	// Behavioural memories (ECC-protected in the paper's threat model,
	// therefore not injection targets). regs holds the register pages of
	// the warps written so far (see page and wpage).
	regs     [MaxWarps]*regPage
	preds    [MaxWarps][isa.NumPreds]uint32
	stacks   [MaxWarps][]simtEntry
	warpMask [MaxWarps]uint32 // top-of-stack active masks (SRS block RAM)
	global   []uint32
	shared   []uint32

	runPos
	jumped      uint64 // stall cycles of this run that advance skipped, not stepped
	fault       *Fault
	injected    bool
	err         error
	machineDone bool
	globalOwned bool // global was allocated by Restore, not passed to Run
	pruned      bool // last run stopped early on golden reconvergence
	live        *Liveness
	vec         *vecTracer // march-engine access tracer; nil on scalar machines

	// hiDirty is the per-warp dirty high-water mark: every warp at or
	// above it is in the canonical empty-warp state resetWarp
	// establishes. hiReg is its row twin: every register row at or above
	// it is zero in every warp, and writes raise it (a fault in the
	// writeback destination can retarget one to any row). State copies
	// and compares stop at the pair — almost always the block's live
	// warps and the few rows the program writes (≤ 7 for a
	// micro-benchmark, 18 for t-MxM).
	hiDirty, hiReg int
}

// regPage is one warp's register file, 8 KB.
type regPage [isa.NumRegs][WarpSize]uint32

// zeroPage is what a warp without a page reads. Nothing writes it.
var zeroPage regPage

// page returns warp w's registers for reading.
func (m *Machine) page(w int) *regPage {
	if r := m.regs[w]; r != nil {
		return r
	}
	return &zeroPage
}

// wpage returns warp w's registers for writing, allocating the page on
// the warp's first write — a fault-corrupted warp index included.
func (m *Machine) wpage(w int) *regPage {
	if m.regs[w] == nil {
		m.regs[w] = new(regPage)
	}
	return m.regs[w]
}

// runPos is the program, launch geometry and run progress a Snapshot
// captures beside the state, and Restore and CopyFrom carry over whole.
type runPos struct {
	prog        *kasm.Program
	imem        []isa.Word
	grid, block int
	curBlock    int
	nwarps      int
	cycle       uint64
	maxCycles   uint64
	blockDone   bool
}

// fieldHandles is the resolved field-index set of all six module layouts.
type fieldHandles struct {
	sf schedFields
	pf pipeFields
	xf fpFields
	nf intFields
	uf sfuFields
	cf ctlFields
}

// model is the part of a Machine that does not depend on the run: the six
// Table I layouts and the field handles resolved against them. It is built
// once per process and shared read-only — campaigns construct a machine
// per worker, per march engine and per pooled lane, and rebuilding 1 163
// named fields (with their formatted names, name map and bit→field table)
// for each was 13 % of a paper-scale pass.
type model struct {
	sched, pipe, fp32, intu, sfu, sfuCtl *Layout
	fieldHandles
}

var sharedModel = sync.OnceValue(func() *model {
	md := &model{
		sched:  newSchedLayout(),
		pipe:   newPipeLayout(),
		fp32:   newFP32Layout(),
		intu:   newINTLayout(),
		sfu:    newSFULayout(),
		sfuCtl: newSFUCtlLayout(),
	}
	md.sf.init(md.sched)
	md.pf.init(md.pipe)
	md.xf.init(md.fp32)
	md.nf.init(md.intu)
	md.uf.init(md.sfu)
	md.cf.init(md.sfuCtl)
	return md
})

// New constructs a machine on the shared model: it allocates the six
// modules' state words and copies the field handles.
func New() *Machine {
	md := sharedModel()
	m := &Machine{
		Sched:        NewState(md.sched),
		Pipe:         NewState(md.pipe),
		FP32:         NewState(md.fp32),
		INT:          NewState(md.intu),
		SFU:          NewState(md.sfu),
		SFUCtl:       NewState(md.sfuCtl),
		fieldHandles: md.fieldHandles,
	}
	// A fresh machine has all-zero predicate files, which is NOT the
	// canonical empty-warp state (PT reads as all-ones after initBlock);
	// treat every warp as dirty until the first launch or restore.
	m.hiDirty, m.hiReg = MaxWarps, isa.NumRegs
	return m
}

// machinePool recycles every machine a campaign uses — per draw
// preparation, campaign worker, march engine and hot lane. Each keeps
// the register pages of the warps its block runs (two, 16 KB, for every
// characterised program) and its module words; Run, Restore and CopyFrom
// overwrite what the last user left, as far as its marks say.
var machinePool = sync.Pool{New: func() any { return New() }}

// Pooled returns a machine from the shared pool, or a new one.
func Pooled() *Machine { return machinePool.Get().(*Machine) }

// Release detaches the machine's tracers, drops any pending fault and
// the register pages of warps beyond its block (written only through a
// fault-corrupted warp index), and returns the machine to the pool. The
// caller must not use it afterwards.
func (m *Machine) Release() {
	m.TraceVec(nil)
	m.TraceLiveness(nil)
	m.fault = nil
	clear(m.regs[m.nwarps:])
	machinePool.Put(m)
}

// ModuleState returns the flip-flop state of one Table I module.
func (m *Machine) ModuleState(mod faults.Module) *State {
	switch mod {
	case faults.ModFP32:
		return m.FP32
	case faults.ModINT:
		return m.INT
	case faults.ModSFU:
		return m.SFU
	case faults.ModSFUCtl:
		return m.SFUCtl
	case faults.ModSched:
		return m.Sched
	default:
		return m.Pipe
	}
}

// ModuleBits returns the flip-flop count of one module (Table I).
func ModuleBits(mod faults.Module) int {
	switch mod {
	case faults.ModFP32:
		return FFCountFP32
	case faults.ModINT:
		return FFCountINT
	case faults.ModSFU:
		return FFCountSFU
	case faults.ModSFUCtl:
		return FFCountSFUCtl
	case faults.ModSched:
		return FFCountSched
	default:
		return FFCountPipe
	}
}

// Inject schedules a single-transient fault for the next Run.
func (m *Machine) Inject(f Fault) { fc := f; m.fault = &fc }

// Cycles returns the cycle count of the last Run.
func (m *Machine) Cycles() uint64 { return m.cycle }

// SkippedCycles returns how many of the last run's Cycles() were the
// repeated stall cycles of a wedged scheduler, accounted without being
// stepped (see advance). Cycles() - SkippedCycles() is what the run
// actually simulated.
func (m *Machine) SkippedCycles() uint64 { return m.jumped }

// Run executes prog on a grid of blocks (sequentially, as FlexGripPlus
// maps one block at a time onto its single SM) with the given global
// memory image and per-block shared memory size, until completion, DUE,
// or the cycle budget expires.
func (m *Machine) Run(prog *kasm.Program, grid, block int, global []uint32, sharedWords int, maxCycles uint64) error {
	return m.RunCheckpointed(prog, grid, block, global, sharedWords, maxCycles, 0, nil)
}

// RunCheckpointed is Run with a checkpoint sink: when every > 0 and sink
// is non-nil, a Snapshot is captured at every cycle boundary that is a
// multiple of every (including cycle 0, i.e. the post-launch state) and
// handed to sink. The snapshots do not perturb execution; resuming any of
// them with RunFromPruned replays the remaining cycles bit-identically.
func (m *Machine) RunCheckpointed(prog *kasm.Program, grid, block int, global []uint32, sharedWords int, maxCycles, every uint64, sink func(*Snapshot)) error {
	if err := m.launch(prog, grid, block, global, sharedWords, maxCycles); err != nil {
		return err
	}
	return m.runLoop(every, sink, nil)
}

// launch performs Run's preamble without entering the cycle loop: validate
// the launch geometry, bind the program and memories, reset every module
// and load the first block's warp table. The bit-parallel march engine
// (vec.go) uses it to drive the golden machine cycle by cycle itself.
func (m *Machine) launch(prog *kasm.Program, grid, block int, global []uint32, sharedWords int, maxCycles uint64) error {
	if prog == nil || len(prog.Instrs) == 0 {
		return fmt.Errorf("%w: empty program", ErrBadLaunch)
	}
	if block <= 0 || block > MaxWarps*WarpSize || grid <= 0 {
		return fmt.Errorf("%w: grid %d block %d", ErrBadLaunch, grid, block)
	}
	m.prog = prog
	m.imem = prog.Words
	m.global = global
	m.globalOwned = false
	m.shared = make([]uint32, sharedWords)
	m.grid, m.block = grid, block
	m.maxCycles = maxCycles
	m.cycle = 0
	m.jumped = 0
	m.err = nil
	m.injected = false
	m.machineDone = false

	m.Sched.Reset()
	m.Pipe.Reset()
	m.FP32.Reset()
	m.INT.Reset()
	m.SFU.Reset()
	m.SFUCtl.Reset()

	m.curBlock = 0
	m.initBlock()
	return nil
}

// runLoop resumes execution of the current block and any remaining
// blocks until completion, DUE, or watchdog expiry. It assumes initBlock
// has already run for curBlock (Run just did it; RunFromPruned restored
// a mid-block state). When golden is non-nil, every checkpoint-aligned
// cycle boundary after any injected fault has fired is compared against
// golden(cycle): a bit-identical match proves the rest of the run
// replays the golden tail, so the loop stops there with pruned set.
func (m *Machine) runLoop(every uint64, sink func(*Snapshot), golden func(uint64) *Snapshot) error {
	m.pruned = false
	prev := &noSnapshot // the last checkpoint, whose unchanged images the next shares
	for {
		for !m.blockDone && m.err == nil {
			if m.cycle >= m.maxCycles {
				m.err = ErrWatchdog
				break
			}
			if every > 0 && m.cycle%every == 0 {
				if sink != nil {
					prev = m.snapshot(prev)
					sink(prev)
				}
				if golden != nil && (m.fault == nil || m.injected) {
					if gs := golden(m.cycle); gs != nil && m.matches(gs) {
						m.pruned = true
						m.machineDone = true
						m.fault = nil
						return nil
					}
				}
			}
			m.advance()
		}
		if m.err != nil || m.curBlock+1 >= m.grid {
			break
		}
		m.curBlock++
		m.initBlock()
	}
	m.machineDone = m.err == nil
	m.fault = nil
	return m.err
}

// initBlock loads the warp table for one block.
func (m *Machine) initBlock() {
	m.blockDone = false
	m.nwarps = (m.block + WarpSize - 1) / WarpSize
	for i := range m.shared {
		m.shared[i] = 0
	}
	for w := 0; w < MaxWarps; w++ {
		m.resetWarp(w)
		if w < m.nwarps {
			lanesLive := m.block - w*WarpSize
			mask := uint32(0xFFFFFFFF)
			if lanesLive < WarpSize {
				mask = 1<<uint(lanesLive) - 1
			}
			m.warpMask[w] = mask
			m.Sched.Set(m.sf.pc[w], 0)
			m.Sched.Set(m.sf.reconv[w], reconvNone)
			m.Sched.Set(m.sf.state[w], stReady)
			m.Sched.Set(m.sf.depth[w], 0)
			m.Sched.Set(m.sf.slot[w], uint64(w))
			m.Sched.Set(m.sf.ibuf[w], 0)
			m.Sched.Set(m.sf.groupen[w], 0xFF)
			m.Sched.Set(m.sf.wctl[w], 0)
		} else {
			m.warpMask[w] = 0
			m.Sched.Set(m.sf.state[w], stEmpty)
			m.Sched.Set(m.sf.groupen[w], 0)
		}
	}
	m.Sched.Set(m.sf.livewarps, uint64(m.nwarps))
	m.Sched.Set(m.sf.barwait, 0)
	m.Sched.Set(m.sf.rrptr, 0)
	m.Sched.Set(m.sf.phase, phSched)
	m.hiDirty, m.hiReg = m.nwarps, 0
}

// resetWarp returns warp w's behavioural memories to the canonical
// empty-warp state: zero registers, zero predicates with PT reading
// all-ones, an empty SIMT stack and a zero active mask. initBlock
// establishes this state for every warp beyond the block, and Restore
// relies on it for warps above the snapshot's dirty high-water mark.
// Rows at or above hiReg are zero already, and a warp keeps its page.
func (m *Machine) resetWarp(w int) {
	if r := m.regs[w]; r != nil {
		clear(r[:m.hiReg])
	}
	m.preds[w] = [isa.NumPreds]uint32{}
	m.preds[w][isa.PT] = 0xFFFFFFFF
	m.stacks[w] = m.stacks[w][:0]
	m.warpMask[w] = 0
}

// markWarp records that warp w's behavioural state may be written this
// cycle. Fault-corrupted warp indices can point past the block's live
// warps, so every write path raises the high-water mark.
func (m *Machine) markWarp(w int) {
	if w >= m.hiDirty {
		m.hiDirty = w + 1
	}
}

// markReg records that register row r may be written in some warp.
func (m *Machine) markReg(r int) {
	if r >= m.hiReg {
		m.hiReg = r + 1
	}
}

// advance is what every run loop steps a machine with: one stepCycle and,
// when that cycle wedged the machine, the hang fast path. A wedged machine
// repeats the same stall cycle until the watchdog expires (see phaseSched),
// changing nothing but the cycle counters, so the clock moves straight to
// the budget — with the cyclectr flip-flops the stepped run would have
// left — and the loop's own budget check ends the run as ErrWatchdog. The
// jumped cycles are reported by SkippedCycles. There is deliberately no
// general cycle detection behind this: on a paper-scale characterisation
// pass every hung run is this wedge, none a livelock (DESIGN §4).
func (m *Machine) advance() {
	if m.stepCycle() && m.cycle < m.maxCycles {
		m.jumped += m.maxCycles - m.cycle
		m.cycle = m.maxCycles
		m.Sched.Set(m.sf.cyclectr, uint64(uint32(m.cycle)))
	}
}

// stepCycle advances the machine exactly one clock cycle, applying any
// scheduled fault at the cycle boundary. It reports whether the cycle left
// the machine wedged: the scheduler stalled and no injection is pending —
// a later flip of a warp-state bit is the one thing that un-wedges it.
func (m *Machine) stepCycle() (wedged bool) {
	if m.live != nil {
		// Pin this cycle's fault-application point on the liveness
		// sequence axis, exactly where the FlipBit below would land.
		m.live.markCycle(m.cycle)
	}
	if m.fault != nil && !m.injected && m.cycle == m.fault.Cycle {
		m.ModuleState(m.fault.Module).FlipBit(m.fault.Bit)
		m.injected = true
	}
	stalled := false
	switch m.Sched.Get(m.sf.phase) {
	case phSched:
		stalled = m.phaseSched()
	case phFetch:
		m.phaseFetch()
	case phDecode:
		m.phaseDecode()
	case phCollect:
		m.phaseCollect()
	case phIssue:
		m.phaseIssue()
	case phExec:
		m.phaseExec()
	case phGroupWB:
		m.phaseGroupWB()
	case phMemAddr:
		m.phaseMemAddr()
	case phMemAccess:
		m.phaseMemAccess()
	case phWriteback:
		m.phaseWriteback()
	case phCommit:
		m.phaseCommit()
	default:
		// Corrupted phase register: control logic is lost.
		m.err = ErrBadStack
	}
	m.cycle++
	m.Sched.Set(m.sf.cyclectr, uint64(uint32(m.cycle)))
	return stalled && (m.fault == nil || m.injected)
}
