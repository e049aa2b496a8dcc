package emu

import "fmt"

// Snapshot captures a launch at an instruction boundary: the current
// block's warps (registers, predicates, SIMT stacks, barrier/exit state),
// shared memory and the Result counters, but of global memory only its
// length. Blocks run sequentially, so blocks before the captured one are
// fully reflected in global memory and blocks after it have not started:
// the snapshot, the launch description and the global image at capture
// are everything Resume needs. Rebuilding that image is the caller's job
// (package replay keeps the words the launch stored before the capture).
//
// A Snapshot owns deep copies of its state and is immutable after
// capture, so any number of Resume calls (including concurrent ones) can
// fork from it.
type Snapshot struct {
	block  int
	warp   int
	warps  []*warp
	shared []uint32
	words  int // len(Global) at capture
	res    Result
}

// Res returns the launch's Result counters at the capture point.
func (s *Snapshot) Res() Result { return s.res }

// Block returns the index of the block the snapshot was captured in.
func (s *Snapshot) Block() int { return s.block }

// Warp returns, in a barrier-free launch, the index of the warp that was about
// to step at capture (the block's earlier warps are done, its later ones
// not started), and -1 otherwise.
func (s *Snapshot) Warp() int { return s.warp }

// Warps returns how many warp states the snapshot holds: the warps of its
// block that had started and not finished at capture, each a full
// register file.
func (s *Snapshot) Warps() int {
	n := 0
	for _, w := range s.warps {
		if w != nil && w != finished {
			n++
		}
	}
	return n
}

// finished stands for every done warp of a Snapshot: nothing reads a done
// warp's registers again, so a snapshot keeps none of them.
var finished = &warp{done: true}

// clone deep-copies a warp into a pooled one; a slot not started yet
// stays nil, and a done warp becomes finished. The regs and preds arrays
// copy by value; only the SIMT stack needs an explicit copy. A campaign
// resumes once per injection, and fresh ~8 KB clones each time would keep
// the heap full of them.
func (w *warp) clone() *warp {
	switch {
	case w == nil:
		return nil
	case w.done:
		return finished
	}
	c := warpPool.Get().(*warp)
	stack := c.stack[:0]
	*c = *w
	c.stack = append(stack, w.stack...)
	return c
}

func (ex *exec) snapshot(blockID, warpID int, warps []*warp) *Snapshot {
	if !ex.dp.perWarp {
		warpID = -1
	}
	s := &Snapshot{
		block:  blockID,
		warp:   warpID,
		warps:  make([]*warp, len(warps)),
		shared: append([]uint32(nil), ex.shared...),
		words:  len(ex.l.Global),
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
	defer ex.release()
	if sink != nil {
		if every == 0 {
			return ex.res, fmt.Errorf("%w: zero checkpoint interval", ErrBadLaunch)
		}
		ex.ckSink, ex.ckNext, ex.ckEvery = sink, first, every
	}
	return ex.run()
}

// Resume continues a launch from a Snapshot taken during an execution of
// the same launch description. l.Global must hold the global image at
// capture, and have its length; Resume runs on it as it is. The returned
// Result includes the snapshotted prefix counts, so a resumed run reports
// exactly what a full run would.
func Resume(l *Launch, s *Snapshot) (Result, error) {
	ex := newExec(l)
	defer ex.release()
	if err := ex.validate(); err != nil {
		return ex.res, err
	}
	if len(l.Global) != s.words {
		return ex.res, fmt.Errorf("%w: global image %d words, snapshot has %d", ErrBadLaunch, len(l.Global), s.words)
	}
	if s.block >= l.Grid {
		return ex.res, fmt.Errorf("%w: snapshot block %d outside grid %d", ErrBadLaunch, s.block, l.Grid)
	}
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
	return ex.blocksFrom(s.block + 1)
}
