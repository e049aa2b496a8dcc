package apps

import (
	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// Blocked LU decomposition (Doolittle, no pivoting) following Rodinia's
// lud_cuda structure: per block-step kb, a diagonal kernel factors the
// pivot block, perimeter kernels solve the row and column strips, and the
// internal kernel — the FFMA-dense bulk of the computation — applies the
// rank-8 update to the trailing submatrix through shared-memory staging.
// Block indices are baked as immediates, modelling CUDA's constant-bank
// kernel arguments.

// ludBS is the blocking factor (8x8 blocks, 64-thread blocks — the same
// tile geometry as t-MxM).
const ludBS = 8

// LUD registers.
const (
	uTid  = isa.Reg(1)
	uTx   = isa.Reg(2)
	uTy   = isa.Reg(3)
	uAddr = isa.Reg(4)
	uVal  = isa.Reg(5)
	uAcc  = isa.Reg(6)
	uL    = isa.Reg(7)
	uU    = isa.Reg(8)
	uTmp  = isa.Reg(9)
	uRcp  = isa.Reg(10)
	uNeg  = isa.Reg(11)
)

// ludThreadCoords emits tx = tid&7, ty = tid>>3.
func ludThreadCoords(b *kasm.Builder) {
	b.S2R(uTid, isa.SRTid)
	b.AndI(uTx, uTid, ludBS-1)
	b.Shr(uTy, uTid, 3)
}

// ludStage loads the 8x8 block at matrix block coordinates (blockRow,
// blockCol) into shared memory at sharedOff, one element per thread,
// optionally negated.
func ludStage(b *kasm.Builder, n, blockRow, blockCol int, sharedOff int32, negate bool) {
	base := int32((blockRow*ludBS)*n + blockCol*ludBS)
	b.IMadI(uAddr, uTy, int32(n), uTx)
	b.Gld(uVal, uAddr, base)
	if negate {
		b.MovF(uTmp, -1)
		b.FMul(uVal, uVal, uTmp)
	}
	b.IMadI(uTmp, uTy, ludBS, uTx)
	b.Sst(uTmp, sharedOff, uVal)
}

// buildLUDDiagonal factors the pivot block A[kb][kb] in place.
func buildLUDDiagonal(n, kb int) *kasm.Program {
	b := kasm.New("lud_diagonal")
	ludThreadCoords(b)
	ludStage(b, n, kb, kb, 0, false)
	b.Bar()
	for k := 0; k < ludBS-1; k++ {
		// Column k below the diagonal: s[ty][k] *= 1/s[k][k].
		b.ISetPI(isa.P(0), isa.CmpGT, uTy, int32(k))
		b.ISetPI(isa.P(1), isa.CmpEQ, uTx, int32(k))
		b.If(isa.P(0), func() {
			b.If(isa.P(1), func() {
				b.MovI(uTmp, int32(k*ludBS+k))
				b.Sld(uRcp, uTmp, 0)
				b.FRcp(uRcp, uRcp)
				b.IMadI(uAddr, uTy, ludBS, uTx)
				b.Sld(uVal, uAddr, 0)
				b.FMul(uVal, uVal, uRcp)
				b.Sst(uAddr, 0, uVal)
			})
		})
		b.Bar()
		// Trailing update: s[ty][tx] -= s[ty][k] * s[k][tx].
		b.ISetPI(isa.P(1), isa.CmpGT, uTx, int32(k))
		b.If(isa.P(0), func() {
			b.If(isa.P(1), func() {
				b.IMadI(uAddr, uTy, ludBS, isa.RZ)
				b.Sld(uL, uAddr, int32(k))
				b.MovI(uTmp, int32(k*ludBS))
				b.IAdd(uTmp, uTmp, uTx)
				b.Sld(uU, uTmp, 0)
				b.MovF(uNeg, -1)
				b.FMul(uL, uL, uNeg)
				b.IMadI(uAddr, uTy, ludBS, uTx)
				b.Sld(uAcc, uAddr, 0)
				b.FFma(uAcc, uL, uU, uAcc)
				b.Sst(uAddr, 0, uAcc)
			})
		})
		b.Bar()
	}
	// Write the factored block back.
	b.IMadI(uTmp, uTy, ludBS, uTx)
	b.Sld(uVal, uTmp, 0)
	b.IMadI(uAddr, uTy, int32(n), uTx)
	b.Gst(uAddr, int32((kb*ludBS)*n+kb*ludBS), uVal)
	return kasm.MustFinalize(b)
}

// buildLUDRowStrip solves L_kk * U = A[kb][jb] (unit lower triangular
// forward substitution), in place.
func buildLUDRowStrip(n, kb, jb int) *kasm.Program {
	b := kasm.New("lud_rowstrip")
	ludThreadCoords(b)
	ludStage(b, n, kb, kb, 0, false)           // L block
	ludStage(b, n, kb, jb, ludBS*ludBS, false) // strip
	b.Bar()
	for r := 1; r < ludBS; r++ {
		// Row r: s[r][tx] -= sum_{t<r} L[r][t] * s[t][tx].
		b.ISetPI(isa.P(0), isa.CmpEQ, uTy, int32(r))
		b.If(isa.P(0), func() {
			b.IMadI(uAddr, uTy, ludBS, uTx)
			b.Sld(uAcc, uAddr, ludBS*ludBS)
			b.MovF(uNeg, -1)
			for t := 0; t < r; t++ {
				b.MovI(uTmp, int32(r*ludBS+t))
				b.Sld(uL, uTmp, 0)
				b.FMul(uL, uL, uNeg)
				b.MovI(uTmp, int32(t*ludBS))
				b.IAdd(uTmp, uTmp, uTx)
				b.Sld(uU, uTmp, ludBS*ludBS)
				b.FFma(uAcc, uL, uU, uAcc)
			}
			b.Sst(uAddr, ludBS*ludBS, uAcc)
		})
		b.Bar()
	}
	b.IMadI(uTmp, uTy, ludBS, uTx)
	b.Sld(uVal, uTmp, ludBS*ludBS)
	b.IMadI(uAddr, uTy, int32(n), uTx)
	b.Gst(uAddr, int32((kb*ludBS)*n+jb*ludBS), uVal)
	return kasm.MustFinalize(b)
}

// buildLUDColStrip solves L * U_kk = A[ib][kb] for L (back substitution
// against the upper-triangular pivot block), in place.
func buildLUDColStrip(n, kb, ib int) *kasm.Program {
	b := kasm.New("lud_colstrip")
	ludThreadCoords(b)
	ludStage(b, n, kb, kb, 0, false)           // U block
	ludStage(b, n, ib, kb, ludBS*ludBS, false) // strip
	b.Bar()
	for c := 0; c < ludBS; c++ {
		// Column c: s[ty][c] = (s[ty][c] - sum_{t<c} s[ty][t]*U[t][c]) / U[c][c].
		b.ISetPI(isa.P(0), isa.CmpEQ, uTx, int32(c))
		b.If(isa.P(0), func() {
			b.IMadI(uAddr, uTy, ludBS, uTx)
			b.Sld(uAcc, uAddr, ludBS*ludBS)
			b.MovF(uNeg, -1)
			for t := 0; t < c; t++ {
				b.IMadI(uTmp, uTy, ludBS, isa.RZ)
				b.Sld(uL, uTmp, int32(ludBS*ludBS+t))
				b.FMul(uL, uL, uNeg)
				b.MovI(uTmp, int32(t*ludBS+c))
				b.Sld(uU, uTmp, 0)
				b.FFma(uAcc, uL, uU, uAcc)
			}
			b.MovI(uTmp, int32(c*ludBS+c))
			b.Sld(uRcp, uTmp, 0)
			b.FRcp(uRcp, uRcp)
			b.FMul(uAcc, uAcc, uRcp)
			b.Sst(uAddr, ludBS*ludBS, uAcc)
		})
		b.Bar()
	}
	b.IMadI(uTmp, uTy, ludBS, uTx)
	b.Sld(uVal, uTmp, ludBS*ludBS)
	b.IMadI(uAddr, uTy, int32(n), uTx)
	b.Gst(uAddr, int32((ib*ludBS)*n+kb*ludBS), uVal)
	return kasm.MustFinalize(b)
}

// buildLUDInternal applies the trailing update A[ib][jb] -= L_strip *
// U_strip — the t-MxM-shaped, FFMA-dense bulk of blocked LUD.
func buildLUDInternal(n, kb, ib, jb int) *kasm.Program {
	b := kasm.New("lud_internal")
	ludThreadCoords(b)
	ludStage(b, n, ib, kb, 0, true)            // -L strip (negated)
	ludStage(b, n, kb, jb, ludBS*ludBS, false) // U strip
	b.Bar()
	base := int32((ib*ludBS)*n + jb*ludBS)
	b.IMadI(uAddr, uTy, int32(n), uTx)
	b.Gld(uAcc, uAddr, base)
	b.IMadI(uTmp, uTy, ludBS, isa.RZ) // shared row base
	for t := int32(0); t < ludBS; t++ {
		b.Sld(uL, uTmp, t)
		b.Sld(uU, uTx, ludBS*ludBS+t*ludBS)
		b.FFma(uAcc, uL, uU, uAcc)
	}
	b.Gst(uAddr, base, uAcc)
	return kasm.MustFinalize(b)
}

// NewLUD builds the LU-decomposition application (Table III: "LUD,
// 2048x2048, Linear algebra"): Rodinia-style blocked factorisation on a
// diagonally dominant matrix. n must be a power-of-two multiple of 8.
func NewLUD(n int) *Workload {
	nb := n / ludBS
	var kernels kernelMemo
	const diagonal, rowStrip, colStrip, internal = 0, 1, 2, 3
	return &Workload{
		Name:   "LUD",
		Domain: "Linear algebra",
		Size:   sizeStr(n),
		run: func(rt Runner) ([]uint32, error) {
			g := arena(rt, n*n)
			fillMatrix(g[:n*n], n*n, 0xD001, -1, 1)
			for i := 0; i < n; i++ {
				g[i*n+i] = f32(fromBits(g[i*n+i]) + float32(n)) // diagonal dominance
			}
			var l emu.Launch // one per run, assigned whole before each launch
			run := func(key [4]int, build func() *kasm.Program) error {
				l = emu.Launch{
					Prog: kernels.get(key, build), Grid: 1, Block: ludBS * ludBS,
					Global: g, SharedWords: 2 * ludBS * ludBS,
				}
				return rt.Launch(&l)
			}
			for kb := 0; kb < nb; kb++ {
				if err := run([4]int{diagonal, kb}, func() *kasm.Program { return buildLUDDiagonal(n, kb) }); err != nil {
					return nil, err
				}
				for ob := kb + 1; ob < nb; ob++ {
					if err := run([4]int{rowStrip, kb, ob}, func() *kasm.Program { return buildLUDRowStrip(n, kb, ob) }); err != nil {
						return nil, err
					}
					if err := run([4]int{colStrip, kb, ob}, func() *kasm.Program { return buildLUDColStrip(n, kb, ob) }); err != nil {
						return nil, err
					}
				}
				for ib := kb + 1; ib < nb; ib++ {
					for jb := kb + 1; jb < nb; jb++ {
						if err := run([4]int{internal, kb, ib, jb}, func() *kasm.Program { return buildLUDInternal(n, kb, ib, jb) }); err != nil {
							return nil, err
						}
					}
				}
			}
			return copyOut(g, 0, n*n), nil
		},
	}
}
