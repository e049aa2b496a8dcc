package rtl

import (
	"sync"

	"gpufi/internal/faults"
)

// This file implements golden-run liveness tracing, the analysis behind
// the fault-injection engine's dead-site pruning. While a fault-free run
// executes with a Liveness attached (Machine.TraceLiveness), every
// semantic flip-flop access — State.Get, State.Set, State.Reset, the only
// three ways model logic touches sequential state — is recorded as an
// event on a global sequence counter. From those events the tracer builds,
// per named field, the intervals in which the field's value is *live*:
// written, then read before being overwritten.
//
// A single-transient fault flips one bit of one field at the start of one
// cycle. If the golden run's first access to that field at or after the
// injection point is a write (Set overwrites the whole field) — or the
// field is never accessed again — the corrupted value can never reach any
// other state or memory: the faulty run is bit-identical to the golden run
// from the overwrite on, and the fault is provably Masked. DeadAt answers
// exactly that query.
//
// The analysis is conservative in the only direction that matters: any
// read of the field keeps the whole field live (a read of bits the fault
// did not touch still reports live), unprovable cases report live, and a
// zero-valued or never-attached Liveness reports everything live. Pruning
// decisions therefore never reclassify a fault that could propagate.

// liveSpan is one live interval of a field on the event-sequence axis: a
// fault applied at sequence point s (see cycleStart) can propagate through
// this field iff start <= s < end, i.e. the field was last written at or
// before s and is read at end before any overwrite.
type liveSpan struct {
	start, end uint64
}

// modLive is the per-module trace: the layout, each field's last-write
// sequence number, and each field's accumulated live spans (disjoint,
// ascending — see onRead).
type modLive struct {
	lay       *Layout
	lastWrite []uint64
	spans     [][]liveSpan
}

// init sizes the trace for lay, each field's spans empty but non-nil as
// in a Released trace.
func (ml *modLive) init(lay *Layout) {
	ml.lay = lay
	ml.lastWrite = make([]uint64, len(lay.Fields))
	ml.spans = make([][]liveSpan, len(lay.Fields))
	for i := range ml.spans {
		ml.spans[i] = []liveSpan{}
	}
}

// Liveness records one golden run's field-liveness trace. The zero value
// traces all six Table I modules; NewLiveness scopes the trace to one.
// Attach it with Machine.TraceLiveness before Run. A Liveness traces
// exactly one Run; once the run completes (or the tracer is detached) it
// is immutable, so DeadAt is safe to call from any number of goroutines
// concurrently.
type Liveness struct {
	seq        uint64
	cycleStart []uint64 // per cycle, the sequence point where a fault at that cycle lands
	mods       [6]modLive
	scope      int // 1 + the slot of the one traced module; 0 traces all six
}

// NewLiveness returns a tracer that records mod's accesses only — what a
// campaign injecting into one module needs. Every query the trace
// answers compares a field's own events with a cycle's fault-application
// point, and seq is nothing but a clock that orders them: counting only
// mod's events keeps every such comparison, so DeadAt answers for mod
// exactly as the six-module trace does. The other five modules are never
// attached and report every site live. A Released trace of mod is reused
// when there is one: its run appends into span slices an earlier run grew.
func NewLiveness(mod faults.Module) *Liveness {
	if l, ok := livePools[moduleIndex(mod)].Get().(*Liveness); ok {
		return l
	}
	return &Liveness{scope: 1 + moduleIndex(mod)}
}

// livePools holds released scoped traces, one pool per module slot.
var livePools [6]sync.Pool

// Release empties a NewLiveness trace, keeping its slices' capacity, for
// the next NewLiveness of its module: the trace that run records is
// deep-equal to a fresh tracer's. The trace must be detached and no
// longer queried. A nil or six-module trace is left alone.
func (l *Liveness) Release() {
	if l == nil || l.scope == 0 {
		return
	}
	ml := &l.mods[l.scope-1]
	l.seq = 0
	l.cycleStart = l.cycleStart[:0]
	clear(ml.lastWrite)
	for i := range ml.spans {
		ml.spans[i] = ml.spans[i][:0]
	}
	livePools[l.scope-1].Put(l)
}

// moduleIndex maps a Table I module to its Liveness slot, mirroring
// Machine.ModuleState (unknown values resolve to the pipeline module).
func moduleIndex(mod faults.Module) int {
	switch mod {
	case faults.ModFP32:
		return 0
	case faults.ModINT:
		return 1
	case faults.ModSFU:
		return 2
	case faults.ModSFUCtl:
		return 3
	case faults.ModSched:
		return 4
	default:
		return 5
	}
}

// onRead records a field read. The field has been live since its last
// write: extend the current span when that write already opened one,
// otherwise open a new span. Each new span's start (a write event) is
// later than the previous span's end (a read event — any interleaving
// write would have become that read's lastWrite), so spans stay disjoint
// and sorted and DeadAt can binary-search them.
func (l *Liveness) onRead(mod, fi int) {
	l.seq++
	ml := &l.mods[mod]
	w := ml.lastWrite[fi]
	if sp := ml.spans[fi]; len(sp) > 0 && sp[len(sp)-1].start == w {
		sp[len(sp)-1].end = l.seq
		return
	}
	ml.spans[fi] = append(ml.spans[fi], liveSpan{start: w, end: l.seq})
}

// onWrite records a field overwrite: any fault landing between this event
// and the next read of the field is dead.
func (l *Liveness) onWrite(mod, fi int) {
	l.seq++
	l.mods[mod].lastWrite[fi] = l.seq
}

// onReset records a whole-module clear as a write to every field.
func (l *Liveness) onReset(mod int) {
	l.seq++
	lw := l.mods[mod].lastWrite
	for i := range lw {
		lw[i] = l.seq
	}
}

// markCycle pins cycle's fault-application point onto the sequence axis.
// Machine.stepCycle calls it exactly where an injected fault would flip
// its bit, so initBlock/Reset writes of the same cycle sequence strictly
// before it and the cycle's phase logic strictly after.
func (l *Liveness) markCycle(cycle uint64) {
	if cycle != uint64(len(l.cycleStart)) {
		panic("rtl: Liveness reused across runs; attach a fresh tracer per golden run")
	}
	l.cycleStart = append(l.cycleStart, l.seq)
}

// Cycles returns the number of cycles the traced run executed.
func (l *Liveness) Cycles() uint64 { return uint64(len(l.cycleStart)) }

// DeadAt reports whether a single-transient fault flipping bit of mod at
// the start of cycle is provably dead: the golden run overwrites the
// containing field before ever reading it again (or never accesses it),
// so the fault cannot propagate and the run is bit-identical to golden.
// Unprovable cases — including cycles or bits outside the traced run and
// modules outside the trace's scope — conservatively report false.
func (l *Liveness) DeadAt(mod faults.Module, bit int, cycle uint64) bool {
	if cycle >= uint64(len(l.cycleStart)) {
		return false
	}
	ml := &l.mods[moduleIndex(mod)]
	if ml.lay == nil || bit < 0 || bit >= ml.lay.Bits {
		return false
	}
	s := l.cycleStart[cycle]
	sp := ml.spans[ml.lay.fieldAt[bit]]
	i := searchSpanAfter(sp, s) - 1
	return i < 0 || s >= sp[i].end
}

// searchSpanAfter returns the index of the first span starting after s —
// sort.Search specialised to avoid the per-probe closure call on the
// campaign engines' hottest query path (one dead-site check per fault).
func searchSpanAfter(sp []liveSpan, s uint64) int {
	lo, hi := 0, len(sp)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sp[mid].start > s {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TraceLiveness attaches l to the module states it traces — all six, or
// the one it is scoped to — so the next Run records its liveness trace;
// pass nil to detach (a second run must not feed the same tracer). It
// adds no cycles, and checkpoint captures never feed it: Snapshot reads
// module words directly, never through State.Get.
func (m *Machine) TraceLiveness(l *Liveness) {
	for i, st := range m.moduleStates() {
		if l == nil || l.scope != 0 && l.scope != i+1 {
			st.live = nil
			continue
		}
		if l.mods[i].lay == nil {
			l.mods[i].init(st.Lay)
		}
		st.live, st.liveMod = l, i
	}
	m.live = l
}
