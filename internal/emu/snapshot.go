package emu

import "fmt"

// Snapshot captures the complete architectural state of a launch at an
// instruction boundary: the current block's warps (registers, predicates,
// SIMT stacks, barrier/exit state), shared memory, the full global-memory
// image and the Result counters. Blocks run sequentially, so blocks before
// the captured one are fully reflected in global memory and blocks after
// it have not started — the snapshot plus the launch description is
// everything Resume needs.
//
// A Snapshot owns deep copies of all mutable state and is immutable after
// capture, so any number of Resume calls (including concurrent ones) can
// fork from it.
type Snapshot struct {
	block  int
	warps  []*warp
	shared []uint32
	global []uint32
	res    Result
}

// Res returns the launch's Result counters at the capture point.
func (s *Snapshot) Res() Result { return s.res }

// clone deep-copies a warp into a pooled one. The regs and preds arrays
// copy by value; only the SIMT stack needs an explicit copy. A campaign
// resumes once per injection, and fresh ~8 KB clones each time would keep
// the heap full of them.
func (w *warp) clone() *warp {
	c := warpPool.Get().(*warp)
	stack := c.stack[:0]
	*c = *w
	c.stack = append(stack, w.stack...)
	return c
}

func (ex *exec) snapshot(blockID int, warps []*warp) *Snapshot {
	s := &Snapshot{
		block:  blockID,
		warps:  make([]*warp, len(warps)),
		shared: append([]uint32(nil), ex.shared...),
		global: append([]uint32(nil), ex.l.Global...),
		res:    ex.res,
	}
	for i, w := range warps {
		s.warps[i] = w.clone()
	}
	return s
}

// RunCheckpointed executes the launch like Run while handing evenly spaced
// Snapshots to sink: the first once DynThreadInstrs reaches first, then
// one every `every` thread-instructions (boundaries that fall inside one
// warp instruction or between blocks land on the next instruction
// boundary). A nil sink degrades to plain Run.
func RunCheckpointed(l *Launch, first, every uint64, sink func(*Snapshot)) (Result, error) {
	ex := newExec(l)
	if sink != nil {
		if every == 0 {
			return ex.res, fmt.Errorf("%w: zero checkpoint interval", ErrBadLaunch)
		}
		ex.ckSink, ex.ckNext, ex.ckEvery = sink, first, every
	}
	return ex.run()
}

// Resume continues a launch from a Snapshot taken during an execution of
// the same launch description. l.Global must be the same length as the
// snapshotted image; its contents are overwritten with the snapshot's.
// The returned Result includes the snapshotted prefix counts, so a resumed
// run reports exactly what a full run would.
func Resume(l *Launch, s *Snapshot) (Result, error) {
	ex := newExec(l)
	if err := ex.validate(); err != nil {
		return ex.res, err
	}
	if len(l.Global) != len(s.global) {
		return ex.res, fmt.Errorf("%w: global image %d words, snapshot has %d", ErrBadLaunch, len(l.Global), len(s.global))
	}
	if s.block >= l.Grid {
		return ex.res, fmt.Errorf("%w: snapshot block %d outside grid %d", ErrBadLaunch, s.block, l.Grid)
	}
	copy(l.Global, s.global)
	ex.shared = append(ex.shared[:0], s.shared...)
	ex.res = s.res
	warps := make([]*warp, len(s.warps))
	for i, w := range s.warps {
		warps[i] = w.clone()
	}
	if err := ex.blockLoop(s.block, warps); err != nil {
		return ex.res, err
	}
	releaseWarps(warps) // the clones are block-final and unreferenced
	if ex.blockDone(s.block) {
		return ex.res, nil
	}
	return ex.blocksFrom(s.block + 1)
}
