package apps

import (
	"fmt"

	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// Quicksort registers.
const (
	qTid   = isa.Reg(1)
	qLo    = isa.Reg(2)
	qLen   = isa.Reg(3)
	qPiv   = isa.Reg(4)
	qX     = isa.Reg(5)
	qFlag  = isa.Reg(6)
	qOff   = isa.Reg(7)
	qV     = isa.Reg(8)
	qIncl  = isa.Reg(9)
	qExcl  = isa.Reg(10)
	qTotal = isa.Reg(11)
	qDest  = isa.Reg(12)
	qTmp   = isa.Reg(13)
	qIdx   = isa.Reg(14)
	qA     = isa.Reg(15)
	qB     = isa.Reg(16)
	qPass  = isa.Reg(17)
	qNtid  = isa.Reg(18)
)

// Parameter block offsets appended after the key array.
const (
	qpLo = iota
	qpLen
	qpPivot
	qpTotal
	qpParity
	qpWords
)

// buildPartition assembles the single-block stable-partition kernel of the
// GPU quicksort: each thread classifies one key of the segment against the
// pivot (strictly-less when le is false, less-or-equal when le is true),
// the block scans the flags in shared memory (Hillis–Steele), and keys
// scatter in place. The left-part size is written to the parameter block
// for the host's recursion. Layout: [a(n) | lo | len | pivot | total].
func buildPartition(n int, le bool, lo, length int, pivotBits uint32) *kasm.Program {
	cmp := isa.CmpLT
	name := "part_lt"
	if le {
		cmp = isa.CmpLE
		name = "part_le"
	}
	b := kasm.New(name)
	b.S2R(qTid, isa.SRTid)
	b.S2R(qNtid, isa.SRNtid)
	b.MovI(qLo, int32(lo))
	b.MovI(qLen, int32(length))
	b.MovI(qPiv, int32(pivotBits))
	b.ISetPI(isa.P(0), isa.CmpLT, qTid, int32(length)) // active
	// flag = active && (x cmp pivot)
	b.MovI(qFlag, 0)
	b.If(isa.P(0), func() {
		b.IAdd(qIdx, qLo, qTid)
		b.Gld(qX, qIdx, 0)
		b.Emit(isa.Instr{Op: isa.OpFSETP, Guard: isa.PredTrue, PDst: isa.P(1), SrcA: qX, SrcB: qPiv, Cmp: cmp})
		b.If(isa.P(1), func() { b.MovI(qFlag, 1) })
	})
	b.Sst(qTid, 0, qFlag)
	b.Bar()
	// Inclusive Hillis–Steele scan over the block.
	b.MovI(qOff, 1)
	b.Label("scan")
	{
		b.MovI(qV, 0)
		b.ISetP(isa.P(2), isa.CmpGE, qTid, qOff)
		b.If(isa.P(2), func() {
			b.Mov(qTmp, qTid)
			b.IMadI(qTmp, qOff, -1, qTmp) // tid - off
			b.Sld(qV, qTmp, 0)
		})
		b.Bar()
		b.Sld(qTmp, qTid, 0)
		b.IAdd(qTmp, qTmp, qV)
		b.Sst(qTid, 0, qTmp)
		b.Bar()
		b.Shl(qOff, qOff, 1)
		b.ISetP(isa.P(2), isa.CmpLT, qOff, qNtid)
		b.BraIf(isa.P(2), "scan")
	}
	b.Sld(qIncl, qTid, 0)
	b.Mov(qExcl, qIncl)
	b.IMadI(qExcl, qFlag, -1, qExcl) // excl = incl - flag
	// total = shared[len-1]
	b.IAddI(qTmp, qLen, -1)
	b.Sld(qTotal, qTmp, 0)
	// Thread 0 reports the left-part size to the host.
	b.ISetPI(isa.P(3), isa.CmpEQ, qTid, 0)
	b.If(isa.P(3), func() {
		b.MovI(qTmp, int32(n))
		b.Gst(qTmp, qpTotal, qTotal)
	})
	// Scatter: dest = flag ? lo+excl : lo+total+(tid-excl).
	b.If(isa.P(0), func() {
		b.IAdd(qDest, qLo, qTotal)
		b.IAdd(qDest, qDest, qTid)
		b.IMadI(qDest, qExcl, -1, qDest) // lo + total + tid - excl
		b.IAdd(qTmp, qLo, qExcl)
		b.ISetPI(isa.P(1), isa.CmpEQ, qFlag, 1)
		b.Sel(qDest, qTmp, qDest, isa.P(1))
		b.Gst(qDest, 0, qX)
	})
	return kasm.MustFinalize(b)
}

// buildLeafPass assembles one odd-even transposition pass over a segment:
// a straight-line kernel (no loop, no barrier) whose instruction mix is
// dominated by key loads and stores — the value-dominated profile of real
// GPU sorting kernels, where a corrupted key persists to the output (the
// structure behind quicksort's near-1 PVF in Table III). Segment
// parameters are baked as immediates, modelling CUDA's constant-bank
// kernel arguments (which are not injectable register writes).
func buildLeafPass(lo, length, parity int) *kasm.Program {
	b := kasm.New("leafpass")
	b.S2R(qTid, isa.SRTid)
	// base = lo + 2*tid + parity; pair valid when 2*tid+parity+1 < len.
	b.IMadI(qIdx, qTid, 2, isa.RZ)
	b.ISetPI(isa.P(1), isa.CmpLT, qIdx, int32(length-parity-1))
	b.If(isa.P(1), func() {
		b.IAddI(qIdx, qIdx, int32(lo+parity))
		b.Gld(qA, qIdx, 0)
		b.Gld(qB, qIdx, 1)
		// Unconditional compare-exchange writeback, as sorting networks
		// do: a corrupted key always reaches memory.
		b.FMin(qV, qA, qB)
		b.FMax(qTmp, qA, qB)
		b.Gst(qIdx, 0, qV)
		b.Gst(qIdx, 1, qTmp)
	})
	return kasm.MustFinalize(b)
}

// leafCutoff is the segment size below which the leaf sorter takes over.
const leafCutoff = 64

// NewQuicksort builds the sorting application (Table III: "Quicksort, 4MB
// array, Sorting" — scaled to n float32 keys, n <= 512 so a segment fits
// one block). The host performs the classic quicksort recursion with
// median-of-three pivots; partitioning and leaf sorting run on the device.
func NewQuicksort(n int) *Workload {
	if n > 512 {
		n = 512 // single-block partition bound
	}
	words := n + qpWords
	var kernels kernelMemo
	const leafPass, partLT, partLE = 0, 1, 2
	partition := func(kind, lo, length int, pivotBits uint32) *kasm.Program {
		return kernels.get([4]int{kind, lo, length, int(pivotBits)}, func() *kasm.Program {
			return buildPartition(n, kind == partLE, lo, length, pivotBits)
		})
	}
	return &Workload{
		Name:   "Quicksort",
		Domain: "Sorting",
		Size:   fmt.Sprintf("%d keys", n),
		run: func(rt Runner) ([]uint32, error) {
			g := arena(rt, words)
			fillMatrix(g[:n], n, 0xF001, -1000, 1000)
			type seg struct{ lo, len int }
			stack := []seg{{0, n}}
			var l emu.Launch // one per run, assigned whole before each launch
			// The host recursion depth is bounded; a corrupted run that
			// fails to make progress is cut off as a hang (DUE).
			for steps := 0; len(stack) > 0; steps++ {
				if steps > 64*n {
					return nil, fmt.Errorf("quicksort: %w", emu.ErrWatchdog)
				}
				s := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if s.len <= 1 {
					continue
				}
				if s.len <= leafCutoff {
					lb := pow2ceil((s.len + 1) / 2)
					var pass [2]*kasm.Program
					for parity := range pass {
						pass[parity] = kernels.get([4]int{leafPass, s.lo, s.len, parity}, func() *kasm.Program {
							return buildLeafPass(s.lo, s.len, parity)
						})
					}
					for i := 0; i < s.len; i++ {
						l = emu.Launch{Prog: pass[i&1], Grid: 1, Block: lb, Global: g}
						if err := rt.Launch(&l); err != nil {
							return nil, err
						}
					}
					continue
				}
				// Median-of-three pivot (host-side reads, as a cudaMemcpy
				// of three words would do).
				a := fromBits(g[s.lo])
				b := fromBits(g[s.lo+s.len/2])
				c := fromBits(g[s.lo+s.len-1])
				pivot := medianOf3(a, b, c)
				pb := pow2ceil(s.len)
				l = emu.Launch{
					Prog: partition(partLT, s.lo, s.len, f32(pivot)), Grid: 1, Block: pb,
					Global: g, SharedWords: pb,
				}
				if err := rt.Launch(&l); err != nil {
					return nil, err
				}
				totalL := int(int32(g[n+qpTotal]))
				if totalL < 0 || totalL > s.len {
					// A corrupted partition count would index out of the
					// segment; real code would fault or misbehave — treat
					// as data corruption and stop recursing this segment.
					continue
				}
				if totalL == 0 {
					// Pivot is the minimum: peel off the equal class.
					l = emu.Launch{
						Prog: partition(partLE, s.lo, s.len, f32(pivot)), Grid: 1, Block: pb,
						Global: g, SharedWords: pb,
					}
					if err := rt.Launch(&l); err != nil {
						return nil, err
					}
					eq := int(int32(g[n+qpTotal]))
					if eq <= 0 || eq > s.len {
						continue
					}
					if eq < s.len {
						stack = append(stack, seg{s.lo + eq, s.len - eq})
					}
					continue
				}
				stack = append(stack, seg{s.lo, totalL}, seg{s.lo + totalL, s.len - totalL})
			}
			return copyOut(g, 0, n), nil
		},
	}
}

func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func medianOf3(a, b, c float32) float32 {
	switch {
	case (a <= b && b <= c) || (c <= b && b <= a):
		return b
	case (b <= a && a <= c) || (c <= a && a <= b):
		return a
	default:
		return c
	}
}
