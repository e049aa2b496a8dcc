package apps

import (
	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/replay"
)

// Gaussian elimination registers.
const (
	gTid  = isa.Reg(1)
	gI    = isa.Reg(2)
	gJ    = isa.Reg(3)
	gM    = isa.Reg(4)
	gPiv  = isa.Reg(5)
	gAddr = isa.Reg(6)
	gTmp  = isa.Reg(7)
	gVal  = isa.Reg(8)
	gCta  = isa.Reg(9)
	gNtid = isa.Reg(10)
)

// buildFan1 computes the multiplier column for step k (Rodinia's Fan1):
// m[i] = A[i][k] / A[k][k] for i in (k, n). Global layout:
// [A(n*n) | b(n) | m(n)]. The step k is baked into the kernel immediates
// via the kp register loaded from grid constants — here passed as
// ctaid-independent immediates per launch, so one program per k is
// assembled; for realism across sizes the step index is instead read from
// the last global word.
func buildFan1(n int) *kasm.Program {
	b := kasm.New("fan1")
	b.S2R(gTid, isa.SRTid)
	b.S2R(gCta, isa.SRCtaid)
	b.S2R(gNtid, isa.SRNtid)
	b.IMad(gTid, gCta, gNtid, gTid)
	b.MovI(gAddr, int32(n*n+2*n)) // k slot
	b.Gld(gJ, gAddr, 0)           // k
	// i = tid + k + 1
	b.IAdd(gI, gTid, gJ)
	b.IAddI(gI, gI, 1)
	b.ISetPI(isa.P(0), isa.CmpLT, gI, int32(n))
	b.If(isa.P(0), func() {
		// pivot = A[k][k]
		b.IMadI(gAddr, gJ, int32(n), gJ)
		b.Gld(gPiv, gAddr, 0)
		b.FRcp(gPiv, gPiv)
		// m[i] = A[i][k] * (1/pivot)
		b.IMadI(gAddr, gI, int32(n), gJ)
		b.Gld(gVal, gAddr, 0)
		b.FMul(gM, gVal, gPiv)
		b.IAddI(gAddr, gI, int32(n*n+n))
		b.Gst(gAddr, 0, gM)
	})
	return kasm.MustFinalize(b)
}

// buildFan2 applies the elimination step (Rodinia's Fan2):
// A[i][j] -= m[i]*A[k][j] for i in (k, n), j in [k, n); b[i] -= m[i]*b[k].
func buildFan2(n int) *kasm.Program {
	b := kasm.New("fan2")
	b.S2R(gTid, isa.SRTid)
	b.S2R(gCta, isa.SRCtaid)
	b.S2R(gNtid, isa.SRNtid)
	b.IMad(gTid, gCta, gNtid, gTid)
	b.MovI(gAddr, int32(n*n+2*n))
	b.Gld(gVal, gAddr, 0) // k
	// Thread handles element (i, j): i = k+1 + tid/n... to keep the
	// index math power-of-two friendly, tid covers the full matrix and
	// guards select the active region.
	log := int32(0)
	for 1<<uint(log) != n {
		log++
	}
	// Row-offset mapping, as Rodinia shrinks Fan2's grid per step: the
	// launch covers only rows (k, n), so i = k+1 + tid/n.
	b.Shr(gI, gTid, log)
	b.IAdd(gI, gI, gVal)
	b.IAddI(gI, gI, 1)
	b.AndI(gJ, gTid, int32(n-1))
	b.ISetPI(isa.P(0), isa.CmpLT, gI, int32(n)) // row in range
	b.ISetP(isa.P(1), isa.CmpGE, gJ, gVal)      // j >= k
	b.If(isa.P(0), func() {
		// m[i]
		b.IAddI(gAddr, gI, int32(n*n+n))
		b.Gld(gM, gAddr, 0)
		b.If(isa.P(1), func() {
			// A[i][j] -= m[i] * A[k][j]
			b.IMadI(gAddr, gVal, int32(n), gJ)
			b.Gld(gTmp, gAddr, 0) // A[k][j]
			b.FMul(gTmp, gM, gTmp)
			b.MovF(gPiv, -1)
			b.IMadI(gAddr, gI, int32(n), gJ)
			b.Gld(gVal, gAddr, 0) // reuse gVal: A[i][j]
			b.FFma(gVal, gTmp, gPiv, gVal)
			b.Gst(gAddr, 0, gVal)
		})
		// b[i] -= m[i]*b[k], done by the j==0 thread of each row.
		b.ISetPI(isa.P(2), isa.CmpEQ, gJ, 0)
		b.If(isa.P(2), func() {
			b.MovI(gAddr, int32(n*n+2*n))
			b.Gld(gVal, gAddr, 0) // reload k (gVal was clobbered)
			b.IAddI(gAddr, gVal, int32(n*n))
			b.Gld(gTmp, gAddr, 0) // b[k]
			b.FMul(gTmp, gM, gTmp)
			b.MovF(gPiv, -1)
			b.IAddI(gAddr, gI, int32(n*n))
			b.Gld(gVal, gAddr, 0) // b[i]
			b.FFma(gVal, gTmp, gPiv, gVal)
			b.Gst(gAddr, 0, gVal)
		})
	})
	return kasm.MustFinalize(b)
}

// NewGaussian builds the Gaussian-elimination application (Table III:
// "Gaussian, 256x256, Linear algebra"): n-1 Fan1/Fan2 step pairs reduce
// A|b to upper-triangular form. n must be a power of two.
func NewGaussian(n int) *Workload {
	fan1 := buildFan1(n)
	fan2 := buildFan2(n)
	block := 256
	if n*n < block {
		block = n * n
	}
	words := n*n + 2*n + 1
	return &Workload{
		Name:   "Gaussian",
		Domain: "Linear algebra",
		Size:   sizeStr(n),
		run: func(rt Runner) ([]uint32, error) {
			var l emu.Launch // one per run, assigned whole before each launch
			g := arena(rt, words)
			fillMatrix(g[:n*n], n*n, 0xC001, 1, 4) // diagonally-safe random system
			// Strengthen the diagonal so elimination is well-conditioned.
			for i := 0; i < n; i++ {
				g[i*n+i] = f32(fromBits(g[i*n+i]) + float32(n))
			}
			fillMatrix(g[n*n:n*n+n], n, 0xC002, -1, 1) // b vector
			for k := 0; k < n-1; k++ {
				replay.HostStore(rt, g, n*n+2*n, uint32(k))
				// Shrinking grids per step, as Rodinia's host code sizes
				// Fan1/Fan2 to the remaining submatrix.
				rows := n - k - 1
				l = emu.Launch{Prog: fan1, Grid: (rows + block - 1) / block, Block: block, Global: g}
				if err := rt.Launch(&l); err != nil {
					return nil, err
				}
				l = emu.Launch{Prog: fan2, Grid: (rows*n + block - 1) / block, Block: block, Global: g}
				if err := rt.Launch(&l); err != nil {
					return nil, err
				}
			}
			return copyOut(g, 0, n*n+n), nil
		},
	}
}
