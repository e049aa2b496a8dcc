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

	// NoFastPath forces the Tier-0 reference interpreter even where the
	// Tier-1 pre-decoded fast path would apply (no armed per-instruction
	// hooks). The two tiers are bit-identical — enforced by
	// FuzzEmuFastPathVsReference — so this is an escape hatch for
	// regression comparison and for benchmarking the interpreter itself,
	// like swfi's NoFastForward.
	NoFastPath bool

	// BlockDone, when non-nil, is called after every block that completes —
	// the block a Resume continues included — with the block index and the
	// launch's counters so far. Returning true ends the launch there,
	// successfully: later blocks do not run. It is not an instruction hook
	// and does not change the interpreter tier.
	BlockDone func(block int, res *Result) (stop bool)
}

// MemTrace collects the global-memory words a launch reads and writes, as
// bitmaps indexed by word address. The replay layer records them on the
// golden run to compute per-boundary live-in sets for reconvergence
// detection. Writes must cover len(Global) bits; so must Reads, unless it
// is nil and loads go untraced.
type MemTrace struct {
	Reads  []uint64
	Writes []uint64

	// Touched lists, in first-store order, the Writes words a store turned
	// non-zero since the list was last emptied, so a consumer can walk or
	// reset (ClearWrites) what was stored in time proportional to it.
	Touched []int32
}

// ClearWrites zeroes the Touched words of Writes and empties Touched.
func (mt *MemTrace) ClearWrites() {
	for _, k := range mt.Touched {
		mt.Writes[k] = 0
	}
	mt.Touched = mt.Touched[:0]
}

// store marks a store to word addr.
func (mt *MemTrace) store(addr int64) {
	k := addr >> 6
	if mt.Writes[k] == 0 {
		mt.Touched = append(mt.Touched, int32(k))
	}
	mt.Writes[k] |= 1 << (uint(addr) & 63)
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
	return newExec(l).run()
}

func newExec(l *Launch) *exec {
	ex := &exec{l: l, budget: l.MaxDynInstrs, armed: l.Hooks.OnArm == nil}
	if ex.budget == 0 {
		ex.budget = DefaultMaxDynInstrs
	}
	if !l.NoFastPath && l.Prog != nil {
		ex.dp = decoded(l.Prog)
	}
	ex.recomputeFast()
	return ex
}

// recomputeFast selects the interpreter tier. Tier 1 (the pre-decoded
// fast path) runs whenever no per-instruction hook can observe an
// instruction: either none is attached, a countdown (ArmAfter/OnArm)
// has not armed yet, or an armed hook has called Event.Disarm. Tier 0 is
// the reference interpreter; it takes over the moment hooks arm, and
// blockLoop re-evaluates the choice at the arming and disarming
// boundaries. MemTrace does not force a tier: the fast path marks
// read/write bitmaps exactly like the reference interpreter.
func (ex *exec) recomputeFast() {
	ex.fast = ex.dp != nil &&
		!(ex.armed && !ex.disarmed && (ex.l.Hooks.Pre != nil || ex.l.Hooks.Post != nil))
}

func (ex *exec) run() (Result, error) {
	if err := ex.validate(); err != nil {
		return ex.res, err
	}
	return ex.blocksFrom(0)
}

// blocksFrom runs blocks first.. of the grid, each followed by BlockDone.
func (ex *exec) blocksFrom(first int) (Result, error) {
	for b := first; b < ex.l.Grid; b++ {
		if err := ex.runBlock(b); err != nil {
			return ex.res, err
		}
		if ex.blockDone(b) {
			break
		}
	}
	return ex.res, nil
}

// blockDone reports a completed block to BlockDone: whether to stop.
func (ex *exec) blockDone(b int) bool {
	return ex.l.BlockDone != nil && ex.l.BlockDone(b, &ex.res)
}

type exec struct {
	l      *Launch
	res    Result
	budget uint64
	shared []uint32
	ev     Event

	// armed gates instrumentation: false while a Hooks countdown
	// (ArmAfter/OnArm) is still pending, so the prefix executes without
	// any per-instruction hook dispatch. disarmed is the converse: a
	// one-shot hook has declared (via Event.Disarm) that it will neither
	// observe nor mutate anything for the rest of the launch, so the tail
	// may run hook-free on the fast path.
	armed    bool
	disarmed bool

	// Tier-1 fast-path state: the pre-decoded program (nil under
	// NoFastPath) and the current tier choice, kept in sync with armed by
	// recomputeFast.
	dp   *dprog
	fast bool

	// scratch absorbs results of instructions whose destination is RZ so
	// the fast path's lane loops carry no per-lane destination test;
	// immRow broadcasts UseImmB immediates into row form.
	scratch [WarpSize]uint32
	immRow  [WarpSize]uint32

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
	l := ex.l
	if cap(ex.shared) < l.SharedWords {
		ex.shared = make([]uint32, l.SharedWords)
	}
	ex.shared = ex.shared[:l.SharedWords]
	for i := range ex.shared {
		ex.shared[i] = 0
	}

	nwarps := (l.Block + WarpSize - 1) / WarpSize
	warps := make([]*warp, nwarps)
	for w := 0; w < nwarps; w++ {
		lanes := l.Block - w*WarpSize
		if lanes > WarpSize {
			lanes = WarpSize
		}
		warps[w] = newWarp(w, lanes)
	}
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

// blockLoop drives a block's warps to completion from an arbitrary
// consistent state: freshly created warps (runBlock) or warps restored
// from a Snapshot (Resume). A warp's scheduling turn only ends when it is
// done or parked at a barrier, so re-entering the round-robin loop from
// warp 0 resumes exactly where a snapshot was captured.
func (ex *exec) blockLoop(blockID int, warps []*warp) error {
	for {
		for _, w := range warps {
			for !w.done && !w.atBar {
				if ex.ckSink != nil && ex.res.DynThreadInstrs >= ex.ckNext {
					ex.ckSink(ex.snapshot(blockID, warps))
					for ex.ckNext <= ex.res.DynThreadInstrs {
						ex.ckNext += ex.ckEvery
					}
				}
				if !ex.armed && ex.res.DynThreadInstrs+WarpSize > ex.l.Hooks.ArmAfter {
					ex.armed = true
					ex.l.Hooks.OnArm(&ex.res)
					ex.recomputeFast()
				}
				var err error
				if ex.fast {
					err = ex.stepFast(blockID, w)
				} else {
					err = ex.step(blockID, w)
					if ex.disarmed {
						ex.recomputeFast()
					}
				}
				if err != nil {
					return err
				}
			}
		}
		allDone, anyBar := true, false
		for _, w := range warps {
			if !w.done {
				allDone = false
				if w.atBar {
					anyBar = true
				}
			}
		}
		if allDone {
			return nil
		}
		if !anyBar {
			return &LaunchError{Block: blockID, Err: ErrDeadlock}
		}
		// Every live warp is parked at the barrier: release them all.
		// (Warps that exited without reaching the barrier do not
		// participate, matching permissive hardware semantics.)
		for _, w := range warps {
			if !w.done {
				w.atBar = false
			}
		}
	}
}
