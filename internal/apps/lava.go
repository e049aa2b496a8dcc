package apps

import (
	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// Lava registers.
const (
	lTid  = isa.Reg(1)
	lXi   = isa.Reg(2)
	lYi   = isa.Reg(3)
	lZi   = isa.Reg(4)
	lFx   = isa.Reg(5)
	lFy   = isa.Reg(6)
	lFz   = isa.Reg(7)
	lE    = isa.Reg(8)
	lJ    = isa.Reg(9)
	lDx   = isa.Reg(10)
	lDy   = isa.Reg(11)
	lDz   = isa.Reg(12)
	lR2   = isa.Reg(13)
	lU    = isa.Reg(14)
	lTmp  = isa.Reg(15)
	lCta  = isa.Reg(16)
	lNtid = isa.Reg(17)
)

// lavaCutoff is the squared interaction radius.
const lavaCutoff = 5.0

// buildLava assembles the particle-interaction kernel (LavaMD-style): each
// thread owns particle i and accumulates the exponentially screened force
// and potential from every particle j in the two boxes:
//
//	u = exp(-r2), fx += u*dx, fy += u*dy, fz += u*dz, e += u*qj
//
// Layout: [x(n) | y(n) | z(n) | q(n) | fx | fy | fz | e], n = total
// particles.
func buildLava(n int) *kasm.Program {
	b := kasm.New("lava")
	b.S2R(lTid, isa.SRTid)
	b.S2R(lCta, isa.SRCtaid)
	b.S2R(lNtid, isa.SRNtid)
	b.IMad(lTid, lCta, lNtid, lTid)
	b.Gld(lXi, lTid, 0)
	b.Gld(lYi, lTid, int32(n))
	b.Gld(lZi, lTid, int32(2*n))
	b.MovF(lFx, 0)
	b.MovF(lFy, 0)
	b.MovF(lFz, 0)
	b.MovF(lE, 0)
	b.MovI(lJ, 0)
	b.Label("jloop")
	{
		// dx = xi - x[j] (via FFMA with -1)
		b.MovF(lTmp, -1)
		b.Gld(lDx, lJ, 0)
		b.FFma(lDx, lDx, lTmp, lXi)
		b.Gld(lDy, lJ, int32(n))
		b.FFma(lDy, lDy, lTmp, lYi)
		b.Gld(lDz, lJ, int32(2*n))
		b.FFma(lDz, lDz, lTmp, lZi)
		// r2 = dx*dx + dy*dy + dz*dz
		b.FMul(lR2, lDx, lDx)
		b.FFma(lR2, lDy, lDy, lR2)
		b.FFma(lR2, lDz, lDz, lR2)
		// Cutoff test, as in LavaMD: pairs beyond the interaction radius
		// contribute nothing — corrupted distances that cross the cutoff
		// are silently dropped, a masking path of the real kernel.
		b.MovF(lTmp, lavaCutoff)
		b.FSetP(isa.P(1), isa.CmpLT, lR2, lTmp)
		b.If(isa.P(1), func() {
			// u = exp(-r2)
			b.MovF(lTmp, -1)
			b.FMul(lR2, lR2, lTmp)
			b.FExp(lU, lR2)
			// accumulate
			b.FFma(lFx, lU, lDx, lFx)
			b.FFma(lFy, lU, lDy, lFy)
			b.FFma(lFz, lU, lDz, lFz)
			b.Gld(lTmp, lJ, int32(3*n)) // qj
			b.FFma(lE, lU, lTmp, lE)
		})
		b.IAddI(lJ, lJ, 1)
		b.ISetPI(isa.P(0), isa.CmpLT, lJ, int32(n))
		b.BraIf(isa.P(0), "jloop")
	}
	b.Gst(lTid, int32(4*n), lFx)
	b.Gst(lTid, int32(5*n), lFy)
	b.Gst(lTid, int32(6*n), lFz)
	b.Gst(lTid, int32(7*n), lE)
	return kasm.MustFinalize(b)
}

// NewLava builds the particle-simulation application (Table III: "Lava,
// 2 3D boxes, Particle simulation") with boxes*perBox particles.
func NewLava(boxes, perBox int) *Workload {
	n := boxes * perBox
	prog := buildLava(n)
	block := 128
	if n < block {
		block = n
	}
	return &Workload{
		Name:   "Lava",
		Domain: "Particle simulation",
		Size:   "2 3D boxes",
		run: func(rt Runner) ([]uint32, error) {
			g := arena(rt, 8*n)
			fillMatrix(g[:n], n, 0xE001, -1.5, 1.5)      // x
			fillMatrix(g[n:2*n], n, 0xE002, -1.5, 1.5)   // y
			fillMatrix(g[2*n:3*n], n, 0xE003, -1.5, 1.5) // z
			fillMatrix(g[3*n:4*n], n, 0xE004, 0.1, 1)    // q
			if err := rt.Launch(&emu.Launch{
				Prog: prog, Grid: (n + block - 1) / block, Block: block,
				Global: g,
			}); err != nil {
				return nil, err
			}
			return copyOut(g, 4*n, 4*n), nil
		},
	}
}
