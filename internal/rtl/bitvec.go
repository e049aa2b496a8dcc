// Package rtl is the register-transfer-level GPU model — the FlexGripPlus
// analog. It executes the same programs as the functional emulator
// (internal/emu) on a cycle-stepped streaming-multiprocessor model whose
// entire sequential state lives in explicit, named flip-flop bit vectors.
//
// Fault injection at this level is the paper's RTL campaign primitive:
// flip one flip-flop bit of one module at one cycle (a single transient)
// and observe how it propagates through the warp scheduler, the pipeline
// registers, the functional units, and the shared SFUs to the program
// output.
//
// The model follows the G80 organisation FlexGripPlus implements: one SM
// with 8 scalar lanes, so each 32-thread warp instruction issues as four
// groups of 8 threads; two SFUs shared by the 8 lanes through an
// arbitration controller; a warp-scheduler table of up to 24 warps. Module
// flip-flop budgets are field-by-field layouts that sum exactly to the
// sizes reported in Table I of the paper.
package rtl

import "fmt"

// Field is one named flip-flop group inside a module layout.
type Field struct {
	Name   string
	Width  int // bits
	Offset int // absolute bit offset within the module, filled by NewLayout
}

// Layout is a module's complete flip-flop map. It is immutable once built:
// the six module layouts are shared read-only by every Machine in the
// process (see sharedModel).
type Layout struct {
	Name    string
	Fields  []Field
	Bits    int // total flip-flops
	byName  map[string]int
	fieldAt []int32     // absolute bit -> field index
	geom    []fieldGeom // per-field access geometry, index-aligned with Fields
}

// fieldGeom is one field's placement in the state words, resolved once by
// NewLayout so getRaw/setRaw (a fifth of a campaign's CPU between them)
// read 16 bytes instead of copying the Field and dividing its offset.
type fieldGeom struct {
	mask  uint64 // width-bit value mask, unshifted
	word  int32  // state word holding the field's low bit
	shift uint8  // the low bit's position in that word
	spill uint8  // bits continuing into word+1; 0 when the field fits one word
}

// low is the field's bit mask within its first state word.
func (g *fieldGeom) low() uint64 { return g.mask << g.shift }

// high is the field's bit mask within the following word (0 without spill).
func (g *fieldGeom) high() uint64 { return uint64(1)<<g.spill - 1 }

// NewLayout builds a layout from (name, width) pairs, assigning offsets in
// declaration order.
func NewLayout(name string, fields []Field) *Layout {
	l := &Layout{Name: name, byName: make(map[string]int, len(fields))}
	off := 0
	for _, f := range fields {
		if f.Width <= 0 || f.Width > 64 {
			panic(fmt.Sprintf("rtl: field %s.%s has invalid width %d", name, f.Name, f.Width))
		}
		if _, dup := l.byName[f.Name]; dup {
			panic(fmt.Sprintf("rtl: duplicate field %s.%s", name, f.Name))
		}
		f.Offset = off
		l.byName[f.Name] = len(l.Fields)
		l.Fields = append(l.Fields, f)
		off += f.Width
	}
	l.Bits = off
	l.fieldAt = make([]int32, l.Bits)
	l.geom = make([]fieldGeom, len(l.Fields))
	for i, f := range l.Fields {
		for b := f.Offset; b < f.Offset+f.Width; b++ {
			l.fieldAt[b] = int32(i)
		}
		g := fieldGeom{mask: ^uint64(0) >> uint(64-f.Width), word: int32(f.Offset / 64), shift: uint8(f.Offset % 64)}
		if end := int(g.shift) + f.Width; end > 64 {
			g.spill = uint8(end - 64)
		}
		l.geom[i] = g
	}
	return l
}

// MustField returns the field index for name, panicking when absent. It is
// used at model construction time to resolve field handles.
func (l *Layout) MustField(name string) int {
	i, ok := l.byName[name]
	if !ok {
		panic(fmt.Sprintf("rtl: layout %s has no field %q", l.Name, name))
	}
	return i
}

// FieldAt returns the field containing absolute bit position, for fault
// reporting and liveness queries.
func (l *Layout) FieldAt(bit int) Field {
	if bit >= 0 && bit < l.Bits {
		return l.Fields[l.fieldAt[bit]]
	}
	return Field{Name: "?", Width: 0, Offset: bit}
}

// State is the live flip-flop contents of one module.
type State struct {
	Lay   *Layout
	words []uint64

	// live, when non-nil, receives every semantic field access (Get, Set,
	// Reset — the only paths model logic uses) for golden-run liveness
	// tracing; liveMod is this module's Liveness slot. Snapshot/Restore
	// copy raw words and deliberately bypass the trace: they capture
	// state, they are not dataflow.
	live    *Liveness
	liveMod int

	// vec, when non-nil, receives the same semantic accesses for the
	// bit-parallel march engine (vec.go): reads probe the lane-divergence
	// planes, writes feed the undo/write log. vecMod mirrors liveMod.
	// Snapshot/Restore/CopyFrom bypass it for the same reason as live.
	vec    *vecTracer
	vecMod int
}

// NewState allocates zeroed flip-flops for a layout.
func NewState(l *Layout) *State {
	return &State{Lay: l, words: make([]uint64, (l.Bits+63)/64)}
}

// Reset clears every flip-flop.
func (s *State) Reset() {
	if s.live != nil {
		s.live.onReset(s.liveMod)
	}
	for i := range s.words {
		s.words[i] = 0
	}
}

// Get reads the field with index fi (from Layout.MustField).
func (s *State) Get(fi int) uint64 {
	if s.live != nil {
		s.live.onRead(s.liveMod, fi)
	}
	if s.vec != nil && s.vec.hot == nil {
		s.vec.onFFRead(s.vecMod, fi)
	}
	return s.getRaw(fi)
}

// getRaw is Get without the tracing hooks: the raw field extraction used
// by the hooks themselves and by the march engine's delta bookkeeping
// (which captures state rather than modelling dataflow).
func (s *State) getRaw(fi int) uint64 {
	g := &s.Lay.geom[fi]
	v := s.words[g.word] >> g.shift
	if g.spill != 0 {
		v |= s.words[g.word+1] << (64 - g.shift)
	}
	return v & g.mask
}

// Set writes the field with index fi, truncating v to the field width.
func (s *State) Set(fi int, v uint64) {
	if s.live != nil {
		s.live.onWrite(s.liveMod, fi)
	}
	if s.vec != nil && s.vec.hot == nil {
		s.vec.onFFWrite(s.vecMod, fi, v)
	}
	s.setRaw(fi, v)
}

// setRaw is Set without the tracing hooks (see getRaw).
func (s *State) setRaw(fi int, v uint64) {
	g := &s.Lay.geom[fi]
	v &= g.mask
	s.words[g.word] = s.words[g.word]&^g.low() | v<<g.shift
	if g.spill != 0 {
		s.words[g.word+1] = s.words[g.word+1]&^g.high() | v>>(64-g.shift)
	}
}

// FlipBit inverts one flip-flop by absolute bit position — the single
// transient fault primitive.
func (s *State) FlipBit(bit int) {
	if bit < 0 || bit >= s.Lay.Bits {
		panic(fmt.Sprintf("rtl: flip bit %d outside %s (%d bits)", bit, s.Lay.Name, s.Lay.Bits))
	}
	s.words[bit/64] ^= 1 << uint(bit%64)
}

// Bit reads one flip-flop by absolute position.
func (s *State) Bit(bit int) uint64 {
	return s.words[bit/64] >> uint(bit%64) & 1
}

// lanes returns i consecutive per-lane fields named prefix0..prefix{n-1}.
func lanes(prefix string, n, width int) []Field {
	fs := make([]Field, n)
	for i := range fs {
		fs[i] = Field{Name: fmt.Sprintf("%s%d", prefix, i), Width: width}
	}
	return fs
}

// cat concatenates field groups.
func cat(groups ...[]Field) []Field {
	var out []Field
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
