// Package emu is the functional SIMT emulator: the "real GPU" substrate on
// which the software-level fault injector (internal/swfi, the NVBitFI
// analog) runs complete applications at speed.
//
// It executes the same SASS-like programs as the RTL model (internal/rtl)
// — warp-lockstep with a PDOM reconvergence stack, block-wide barriers and
// word-addressed global/shared memory — but keeps no micro-architectural
// state, so a kernel that takes hours of RTL simulation runs in
// microseconds here. Instrumentation hooks expose every executed
// instruction with its operand and result values, which is exactly the
// ISA-visible state NVBitFI can reach on real hardware.
package emu

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// WarpSize is the number of threads that execute in lockstep, as on all
// NVIDIA architectures.
const WarpSize = 32

// MaxBlockThreads bounds threads per block (G80 limit).
const MaxBlockThreads = 512

// DefaultMaxDynInstrs is the watchdog budget of thread-level instructions
// per launch when Launch.MaxDynInstrs is zero.
const DefaultMaxDynInstrs = 1 << 32

// maxStackDepth bounds SIMT divergence nesting.
const maxStackDepth = 64

// Emulator failure modes. The software fault injector classifies any of
// these as a DUE (the application crashed or hung).
var (
	ErrWatchdog          = errors.New("emu: watchdog expired (hang)")
	ErrBadAddress        = errors.New("emu: memory access out of range")
	ErrBarrierDivergence = errors.New("emu: barrier reached by diverged warp")
	ErrDeadlock          = errors.New("emu: barrier deadlock")
	ErrUnstructured      = errors.New("emu: divergent branch without reconvergence point")
	ErrStackOverflow     = errors.New("emu: SIMT stack overflow")
	ErrIllegalInstr      = errors.New("emu: illegal instruction")
	ErrBadLaunch         = errors.New("emu: invalid launch configuration")
)

// LaunchError annotates an emulator failure with its location.
type LaunchError struct {
	Block int
	Warp  int
	PC    int
	Err   error
}

// Error implements the error interface.
func (e *LaunchError) Error() string {
	return fmt.Sprintf("block %d warp %d pc %d: %v", e.Block, e.Warp, e.PC, e.Err)
}

// Unwrap exposes the underlying failure mode to errors.Is.
func (e *LaunchError) Unwrap() error { return e.Err }

// Launch describes one kernel invocation.
type Launch struct {
	Prog         *kasm.Program
	Grid         int       // number of blocks
	Block        int       // threads per block (max MaxBlockThreads)
	Global       []uint32  // global memory, shared across blocks; mutated in place
	SharedWords  int       // shared-memory words per block
	Hooks        Hooks     // optional instrumentation
	MaxDynInstrs uint64    // watchdog; DefaultMaxDynInstrs when zero
	Mem          *MemTrace // optional global-memory access tracing

	// Replay, when non-nil, is offered every unit of replay before it
	// runs — the units after the one a Resume continues included — and
	// returns the lanes to run. The unit is the warp in a barrier-free
	// launch, one whose program has no BAR and no shared-memory access: its
	// warps run one after another, each to completion from fresh registers
	// (see package replay). Otherwise it is the block, offered with warp -1.
	// Returning 0 means the caller applied the unit's effect on Global and
	// charged its thread-instruction count to res, so the unit does not
	// run: the watchdog and a pending ArmAfter countdown then see the
	// charged count from the next instruction on. The caller must not
	// charge a count that crosses the watchdog budget; such a unit has to
	// run, so the watchdog fires where it would. Any other value runs the
	// unit — a warp, when Attempt is set and the value is not ^0, as an
	// attempt with only the returned lanes live (exact in a LaneSafe
	// program, see package replay), which BlockDone keeps or rejects.
	Replay func(block, warp int, res *Result) uint32

	// BlockDone, when non-nil, is called after every unit that runs — the
	// one a Resume continues included — with its block, warp and the
	// launch's counters so far, and after every attempt. Neither it nor
	// Replay is an instruction hook. After an attempt that ended without
	// error it decides: true keeps the attempt, with whatever the caller
	// added to Global and res; false, like an attempt that ended in error
	// (Attempt.Err), undoes the attempt's stores and counts, and the warp
	// then runs whole. Its result is ignored otherwise.
	BlockDone func(block, warp int, res *Result) bool

	// Attempt, when non-nil, logs the global-memory accesses of an attempt
	// (see Replay); it enables attempts.
	Attempt *Attempt
}

// Attempt logs one attempt's global-memory accesses for its caller's
// check and for undoing it. The caller sets Lo and Hi; the emulator fills
// the rest.
type Attempt struct {
	// Lo and Hi bound the words whose loads are logged: [Lo, Hi).
	Lo, Hi uint32
	// Lanes is, while BlockDone sees an attempt, the lanes Replay returned
	// for it; 0 otherwise.
	Lanes uint32
	// Stores lists every store, in order, with the word's previous value.
	Stores []Load
	// Loads lists the address of every load of a word in [Lo, Hi).
	Loads []uint32
	// Err is the error the attempt ended in, nil when it completed.
	Err error
}

// undo restores the words the attempt stored to, latest store first.
func (a *Attempt) undo(g []uint32) {
	for i := len(a.Stores) - 1; i >= 0; i-- {
		g[a.Stores[i].Addr] = a.Stores[i].Val
	}
}

// MemTrace records one unit's global-memory footprint: the words it
// stores to, as a bitmap indexed by word address, and its inputs — each
// word it loads before storing to it, with the value loaded. The replay
// layer records both per unit on the golden run. Writes and Loaded must
// cover len(Global) bits; a trace whose Loaded is nil (and Lanes with it)
// records stores only.
type MemTrace struct {
	Writes []uint64

	// Touched lists, in first-store order, the Writes words a store turned
	// non-zero since the last Clear, so a consumer can walk what was stored
	// in time proportional to it.
	Touched []int32

	// Loaded marks the words Inputs holds; Inputs lists them in first-load
	// order.
	Loaded []uint64
	Inputs []Load

	// Lanes, when non-nil, holds for every word the unit loaded or stored
	// the mask of lanes that did; it must cover len(Global) words.
	Lanes []uint32
}

// Load is one input word of a unit: its address and the value loaded.
type Load struct{ Addr, Val uint32 }

// Clear empties the record for the next unit, in time proportional to
// what it holds.
func (mt *MemTrace) Clear() {
	for _, k := range mt.Touched {
		if mt.Lanes != nil {
			for m := mt.Writes[k]; m != 0; m &= m - 1 {
				mt.Lanes[int(k)<<6+bits.TrailingZeros64(m)] = 0
			}
		}
		mt.Writes[k] = 0
	}
	mt.Touched = mt.Touched[:0]
	for _, in := range mt.Inputs {
		mt.Loaded[in.Addr>>6] = 0
		if mt.Lanes != nil {
			mt.Lanes[in.Addr] = 0
		}
	}
	mt.Inputs = mt.Inputs[:0]
}

// store marks a store by lane to word addr.
func (mt *MemTrace) store(addr int64, lane int) {
	k := addr >> 6
	if mt.Writes[k] == 0 {
		mt.Touched = append(mt.Touched, int32(k))
	}
	mt.Writes[k] |= 1 << (uint(addr) & 63)
	if mt.Lanes != nil {
		mt.Lanes[addr] |= 1 << uint(lane)
	}
}

// load records a load by lane of v from word addr, as an input unless the
// word was stored to or loaded before.
func (mt *MemTrace) load(addr int64, v uint32, lane int) {
	k, bit := addr>>6, uint64(1)<<(uint(addr)&63)
	if (mt.Writes[k]|mt.Loaded[k])&bit == 0 {
		mt.Loaded[k] |= bit
		mt.Inputs = append(mt.Inputs, Load{Addr: uint32(addr), Val: v})
	}
	if mt.Lanes != nil {
		mt.Lanes[addr] |= 1 << uint(lane)
	}
}

// Result reports execution statistics.
type Result struct {
	// DynThreadInstrs counts executed thread-level instructions (one
	// warp-level instruction with k active threads counts k).
	DynThreadInstrs uint64
	// PerOpcode breaks DynThreadInstrs down by opcode, the raw data for
	// the paper's Fig. 3 instruction profiles.
	PerOpcode [isa.NumOpcodes]uint64
}

// Run executes the launch to completion. On error the returned Result
// still carries the counts accumulated so far.
func Run(l *Launch) (Result, error) {
	ex := newExec(l)
	defer ex.release()
	return ex.run()
}

// execPool recycles interpreter state across launches: a campaign issues
// launch after launch, each needing about a kilobyte of it.
var execPool = sync.Pool{New: func() any { return new(exec) }}

func newExec(l *Launch) *exec {
	ex := execPool.Get().(*exec)
	*ex = exec{l: l, budget: l.MaxDynInstrs, armed: l.Hooks.OnArm == nil, shared: ex.shared}
	if ex.budget == 0 {
		ex.budget = DefaultMaxDynInstrs
	}
	if ex.armed {
		ex.post = l.Hooks.Post
	}
	if l.Prog != nil {
		ex.dp = decoded(l.Prog)
	}
	return ex
}

// release returns ex to the pool, keeping only its shared-memory buffer.
func (ex *exec) release() {
	*ex = exec{shared: ex.shared}
	execPool.Put(ex)
}

func (ex *exec) run() (Result, error) {
	if err := ex.validate(); err != nil {
		return ex.res, err
	}
	return ex.blocksFrom(0)
}

// blocksFrom runs the blocks first.. of the grid, offering block units to
// Replay.
func (ex *exec) blocksFrom(first int) (Result, error) {
	for b := first; b < ex.l.Grid; b++ {
		if !ex.dp.perWarp && ex.l.Replay != nil && ex.l.Replay(b, -1, &ex.res) == 0 {
			continue
		}
		if err := ex.runBlock(b); err != nil {
			return ex.res, err
		}
	}
	return ex.res, nil
}

// unitDone reports a unit that ran to BlockDone.
func (ex *exec) unitDone(b, w int) {
	if ex.l.BlockDone != nil {
		ex.l.BlockDone(b, w, &ex.res)
	}
}

// attempt runs warp i with only lanes live (see Launch.Replay) and reports
// whether BlockDone kept it. Otherwise it has undone the attempt's stores
// and counts, so the caller runs the warp whole. blockLoop starts
// attempts only once a countdown armed, and an attempt takes no
// checkpoint: one that falls due lands on the next instruction of a warp
// that runs.
func (ex *exec) attempt(blockID, i int, lanes uint32) bool {
	a := ex.l.Attempt
	a.Stores, a.Loads = a.Stores[:0], a.Loads[:0]
	saved := ex.res
	w := newWarp(i, ex.l.Block)
	w.live &= lanes
	w.stack[0].mask = w.live
	ex.att = a
	var err error
	for !w.done && err == nil {
		err = ex.stepFast(blockID, w)
	}
	ex.att = nil
	a.Lanes, a.Err = lanes, err
	warpPool.Put(w)
	keep := ex.l.BlockDone(blockID, i, &ex.res) && err == nil
	a.Lanes = 0
	if keep {
		return true
	}
	a.undo(ex.l.Global)
	ex.res = saved
	return false
}

type exec struct {
	l      *Launch
	res    Result
	budget uint64
	shared []uint32
	ev     Event

	// armed is false while a Hooks countdown (ArmAfter/OnArm) is still
	// pending. post is the Post hook while it may fire: nil before the
	// countdown arms and after the hook calls Event.Disarm, so the prefix
	// and the tail execute without per-instruction event capture.
	armed bool
	post  func(*Event)

	dp *dprog // the pre-decoded program

	att *Attempt // the running attempt's log, nil outside attempts

	// scratch absorbs results of instructions whose destination is RZ so
	// the fast path's lane loops carry no per-lane destination test;
	// immRow broadcasts UseImmB immediates into row form.
	scratch [WarpSize]uint32
	immRow  [WarpSize]uint32

	// slots holds the running block's warps (newBlock).
	slots [MaxBlockThreads / WarpSize]*warp

	// Checkpoint capture state (RunCheckpointed only).
	ckSink  func(*Snapshot)
	ckNext  uint64
	ckEvery uint64
}

func (ex *exec) validate() error {
	l := ex.l
	switch {
	case l.Prog == nil || len(l.Prog.Instrs) == 0:
		return fmt.Errorf("%w: empty program", ErrBadLaunch)
	case l.Grid <= 0:
		return fmt.Errorf("%w: grid %d", ErrBadLaunch, l.Grid)
	case l.Block <= 0 || l.Block > MaxBlockThreads:
		return fmt.Errorf("%w: block %d", ErrBadLaunch, l.Block)
	case len(l.Prog.Instrs) > 0xFFFF:
		return fmt.Errorf("%w: program too large", ErrBadLaunch)
	}
	return nil
}

func (ex *exec) runBlock(blockID int) error {
	warps := ex.newBlock()
	err := ex.blockLoop(blockID, warps)
	if err == nil {
		// Recycle the ~8 KB register files; snapshots hold deep copies,
		// so nothing can still reference these warps. Error paths leave
		// the warps to the GC (LaunchError does not retain them either,
		// but recycling only the common path keeps the invariant easy to
		// see).
		releaseWarps(warps)
	}
	return err
}

// newBlock zeroes shared memory and returns a block's warp slots, each
// holding a fresh warp — except in a barrier-free launch, where blockLoop
// starts each warp when it reaches it, so a replayed warp never starts.
func (ex *exec) newBlock() []*warp {
	l := ex.l
	if cap(ex.shared) < l.SharedWords {
		ex.shared = make([]uint32, l.SharedWords)
	}
	ex.shared = ex.shared[:l.SharedWords]
	for i := range ex.shared {
		ex.shared[i] = 0
	}
	warps := ex.slots[:(l.Block+WarpSize-1)/WarpSize]
	clear(warps)
	if !ex.dp.perWarp {
		for w := range warps {
			warps[w] = newWarp(w, l.Block)
		}
	}
	return warps
}

// blockLoop drives a block's warps to completion from an arbitrary
// consistent state: fresh warp slots (runBlock) or warps restored from a
// Snapshot (Resume). A warp's scheduling turn only ends when it is done or
// parked at a barrier, so re-entering the round-robin loop from warp 0
// resumes exactly where a snapshot was captured.
//
// In a barrier-free block every warp runs to completion in its first turn and
// is a unit: an empty slot is offered to Replay when the loop reaches it,
// and a warp reports to BlockDone when it finishes. Otherwise the block is
// the unit and reports when all its warps are done.
func (ex *exec) blockLoop(blockID int, warps []*warp) error {
	for {
		for i, w := range warps {
			if w == nil {
				lanes := ^uint32(0)
				if ex.l.Replay != nil {
					if lanes = ex.l.Replay(blockID, i, &ex.res); lanes == 0 {
						continue
					}
				}
				if lanes != ^uint32(0) && ex.l.Attempt != nil && ex.armed && ex.attempt(blockID, i, lanes) {
					continue
				}
				w = newWarp(i, ex.l.Block)
				warps[i] = w
			} else if w.done {
				continue
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
				if err := ex.stepFast(blockID, w); err != nil {
					return err
				}
			}
			if ex.dp.perWarp {
				ex.unitDone(blockID, i)
			}
		}
		if done, err := releaseBarrier(blockID, warps); done || err != nil {
			if done && !ex.dp.perWarp {
				ex.unitDone(blockID, -1)
			}
			return err
		}
	}
}

// releaseBarrier ends a scheduling round in which every warp ran until it
// finished or parked at the barrier (a slot Replay took counts as
// finished). It reports whether the block is done;
// otherwise every live warp is parked at the barrier and it releases them
// all (warps that exited without reaching the barrier do not participate,
// matching permissive hardware semantics), or none is and the block is
// deadlocked.
func releaseBarrier(blockID int, warps []*warp) (bool, error) {
	allDone, anyBar := true, false
	for _, w := range warps {
		if w != nil && !w.done {
			allDone = false
			if w.atBar {
				anyBar = true
			}
		}
	}
	if allDone {
		return true, nil
	}
	if !anyBar {
		return false, &LaunchError{Block: blockID, Err: ErrDeadlock}
	}
	for _, w := range warps {
		if w != nil && !w.done {
			w.atBar = false
		}
	}
	return false, nil
}
