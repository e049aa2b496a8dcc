// Package apps implements the six HPC applications the paper evaluates
// with software fault injection (Table III): matrix multiplication, LU
// decomposition, quicksort, the LavaMD particle kernel, Gaussian
// elimination and the Hotspot thermal stencil — all written as kernels for
// the gpufi ISA and executed on the functional emulator.
//
// Application sizes are scaled down from the paper's (which targeted a
// physical Volta GPU) so that software injection campaigns with thousands
// of runs complete in minutes; the Preset* constructors use the paper's
// nominal sizes. PVF depends on each code's dataflow structure — what is
// preserved by scaling — not on absolute size.
package apps

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"gpufi/internal/kasm"
	"gpufi/internal/replay"
	"gpufi/internal/stats"
)

// Runner executes a workload's launches; see replay.Runner. Applications
// are written against it so the same host code runs directly, records a
// fast-forward trace, or replays from checkpoints.
type Runner = replay.Runner

// Workload is one injectable application.
type Workload struct {
	Name   string
	Domain string
	Size   string

	// run executes the complete application on a Runner and returns the
	// words of the output region the golden comparison covers.
	run func(rt Runner) ([]uint32, error)
}

// ExecuteWith runs the complete application on a Runner — a replay.Plain
// (with or without hooks), a replay.Recorder to capture a fast-forward
// trace, or a replay.Player to fast-forward an injection run — and
// returns the words of the output region the golden comparison covers.
func (w *Workload) ExecuteWith(rt Runner) ([]uint32, error) {
	return w.run(rt)
}

// Suite returns the paper's six HPC applications (Table III order) at the
// default scaled sizes.
func Suite() []*Workload {
	return []*Workload{
		NewMxM(64),
		NewLava(2, 64),
		NewQuicksort(1024),
		NewHotspot(32, 16),
		NewLUD(32),
		NewGaussian(32),
	}
}

// ArenaSlack pads every application's global-memory allocation, modelling
// the large virtual address space of a real GPU: a corrupted address whose
// flipped bit stays within the arena reads stale data or writes outside
// the live footprint (a silent corruption), instead of trapping — only
// larger derailments fault, as on hardware.
const ArenaSlack = 1 << 16

// arena allocates a padded global-memory image through the Runner.
func arena(rt Runner, words int) []uint32 { return rt.Arena(words + ArenaSlack) }

// kernelMemo caches the kernels LUD and Quicksort assemble per launch (their
// parameters are baked in as immediates), keyed by those parameters, so a
// kernel is assembled and decoded once per Workload, for all its runs. A
// lookup, made on every launch, takes no lock and allocates nothing: inserts
// into this open-addressing table, serialised by mu, publish complete entries.
type kernelMemo struct {
	slots [2 * kernelMemoMax]atomic.Pointer[memoEntry] // at most half full
	mu    sync.Mutex
	n     int // entries, guarded by mu
}

type memoEntry struct {
	key  [4]int // builder kind, its parameters...
	prog *kasm.Program
}

// kernelMemoMax bounds a memo: corrupted Quicksort runs partition at pivots
// the golden run never saw, and a long campaign must not pin them all.
const kernelMemoMax = 1024

// get returns the kernel for key, building it on first use.
func (m *kernelMemo) get(key [4]int, build func() *kasm.Program) *kasm.Program {
	if _, e := m.find(key); e != nil {
		return e.prog
	}
	p := build()
	m.mu.Lock()
	defer m.mu.Unlock()
	i, e := m.find(key)
	if e != nil { // another run inserted it meanwhile
		return e.prog
	}
	if m.n < kernelMemoMax {
		m.slots[i].Store(&memoEntry{key, p})
		m.n++
	}
	return p
}

// find returns key's entry, or nil and the empty slot where key belongs.
func (m *kernelMemo) find(key [4]int) (int, *memoEntry) {
	h := uint64(0)
	for _, v := range key {
		h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
	}
	for i := int(h >> 33); ; i++ {
		i %= len(m.slots)
		if e := m.slots[i].Load(); e == nil || e.key == key {
			return i, e
		}
	}
}

// f32 packs a float32 into a memory word.
func f32(v float32) uint32 { return math.Float32bits(v) }

// fromBits unpacks a memory word into a float32.
func fromBits(b uint32) float32 { return math.Float32frombits(b) }

// fillMatrix writes a deterministic pseudo-random matrix into words.
func fillMatrix(dst []uint32, n int, seed uint64, lo, hi float64) {
	r := stats.NewRNG(seed)
	for i := 0; i < n; i++ {
		dst[i] = f32(float32(r.Float64Range(lo, hi)))
	}
}

// copyOut extracts a word region.
func copyOut(g []uint32, off, n int) []uint32 {
	out := make([]uint32, n)
	copy(out, g[off:off+n])
	return out
}

// sizeStr formats an n x n size.
func sizeStr(n int) string { return fmt.Sprintf("%dx%d", n, n) }
