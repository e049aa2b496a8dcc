package emu

import (
	"sync"

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

func newWarp(id, threads int) *warp {
	w := warpPool.Get().(*warp)
	mask := uint32(0xFFFFFFFF)
	if lanes := threads - id*WarpSize; lanes < WarpSize {
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

// releaseWarps returns block-final warps to the pool, skipping slots
// that never started and the shared finished warp. Callers must not
// retain any reference: snapshots are safe because they clone.
func releaseWarps(warps []*warp) {
	for _, w := range warps {
		if w != nil && w != finished {
			warpPool.Put(w)
		}
	}
}

func (w *warp) setReg(r isa.Reg, lane int, v uint32) {
	if r == isa.RZ {
		return
	}
	w.regs[r][lane] = v
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
