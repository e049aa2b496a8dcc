package apps

import (
	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/replay"
)

// Hotspot registers.
const (
	hTid  = isa.Reg(1)
	hLx   = isa.Reg(2) // x within the 16x16 block tile
	hLy   = isa.Reg(3) // y within the tile
	hGx   = isa.Reg(4) // global x
	hGy   = isa.Reg(5) // global y
	hT    = isa.Reg(6) // centre temperature
	hP    = isa.Reg(7) // power
	hN    = isa.Reg(8) // neighbour accumulator
	hOut  = isa.Reg(9) // updated value
	hAddr = isa.Reg(10)
	hTmp  = isa.Reg(11)
	hCta  = isa.Reg(12)
	hSIdx = isa.Reg(13) // shared index
	hBx   = isa.Reg(14)
	hBy   = isa.Reg(15)
)

// hotspotAmbient is the ambient temperature of the leak term.
const hotspotAmbient = 45.0

// Pyramid-kernel geometry (Rodinia hotspot): each 16x16 thread block
// computes two stencil steps over its tile but commits only the inner 8x8
// core; the halo work is redundant and its corruption is discarded — the
// structural masking that gives hotspot the lowest PVF in Table III.
const (
	hsTile  = 16
	hsCore  = 8
	hsHalo  = (hsTile - hsCore) / 2 // 4
	hsBlock = hsTile * hsTile
)

// buildHotspot assembles the two-step pyramid kernel. Global layout:
// [tempIn(n*n) | power(n*n) | tempOut(n*n)]. Step update:
//
//	out = t + 0.1*p + 0.125*(up+down+left+right-4t) + 0.08*(amb-t)
//
// with border cells copied through (Dirichlet boundary). The ambient leak
// is Rodinia's coupling term; it makes transient perturbations decay.
func buildHotspot(n int) *kasm.Program {
	log := int32(0)
	for 1<<uint(log) != n {
		log++
	}
	logTiles := int32(0)
	for 1<<uint(logTiles) != n/hsCore {
		logTiles++
	}
	b := kasm.New("hotspot_pyramid")
	b.S2R(hTid, isa.SRTid)
	b.AndI(hLx, hTid, hsTile-1)
	b.Shr(hLy, hTid, 4)
	b.S2R(hCta, isa.SRCtaid)
	b.AndI(hBx, hCta, int32(n/hsCore-1))
	b.Shr(hBy, hCta, logTiles)
	// gx = bx*8 - 4 + lx, gy = by*8 - 4 + ly
	b.IMulI(hGx, hBx, hsCore)
	b.IAdd(hGx, hGx, hLx)
	b.IAddI(hGx, hGx, -hsHalo)
	b.IMulI(hGy, hBy, hsCore)
	b.IAdd(hGy, hGy, hLy)
	b.IAddI(hGy, hGy, -hsHalo)

	// In-domain predicate P0 and interior predicate P1 for step 1.
	inDomain := func(dst isa.Pred, scratch isa.Pred) {
		// dst = 0<=gx<n && 0<=gy<n, computed by narrowing an integer flag.
		b.ISetPI(dst, isa.CmpGE, hGx, 0)
		b.MovI(hTmp, 0)
		b.If(dst, func() {
			b.ISetPI(scratch, isa.CmpLT, hGx, int32(n))
			b.If(scratch, func() {
				b.ISetPI(scratch, isa.CmpGE, hGy, 0)
				b.If(scratch, func() {
					b.ISetPI(scratch, isa.CmpLT, hGy, int32(n))
					b.If(scratch, func() { b.MovI(hTmp, 1) })
				})
			})
		})
		b.ISetPI(dst, isa.CmpEQ, hTmp, 1)
	}
	interior := func(dst isa.Pred, scratch isa.Pred) {
		b.ISetPI(dst, isa.CmpGT, hGx, 0)
		b.MovI(hTmp, 0)
		b.If(dst, func() {
			b.ISetPI(scratch, isa.CmpLT, hGx, int32(n-1))
			b.If(scratch, func() {
				b.ISetPI(scratch, isa.CmpGT, hGy, 0)
				b.If(scratch, func() {
					b.ISetPI(scratch, isa.CmpLT, hGy, int32(n-1))
					b.If(scratch, func() { b.MovI(hTmp, 1) })
				})
			})
		})
		b.ISetPI(dst, isa.CmpEQ, hTmp, 1)
	}

	inDomain(isa.P(0), isa.P(5))
	interior(isa.P(1), isa.P(5))

	// Load own temperature and power (0 outside the domain).
	b.IMadI(hAddr, hGy, int32(n), hGx)
	b.MovI(hT, 0)
	b.GldIf(isa.P(0), hT, hAddr, 0)
	b.MovI(hP, 0)
	b.GldIf(isa.P(0), hP, hAddr, int32(n*n))

	stencil := func(load func(dx, dy int32)) {
		// hN accumulates the four neighbours via load(dx,dy) into hTmp.
		b.MovI(hN, 0)
		for _, d := range [][2]int32{{0, -1}, {0, 1}, {-1, 0}, {1, 0}} {
			load(d[0], d[1])
			b.FAdd(hN, hN, hTmp)
		}
		// n - 4t
		b.MovF(hTmp, -4)
		b.FFma(hN, hT, hTmp, hN)
		// out = t + 0.1p + 0.125(n-4t) + 0.08(amb - t)
		b.MovF(hTmp, 0.1)
		b.FFma(hOut, hP, hTmp, hT)
		b.MovF(hTmp, 0.125)
		b.FFma(hOut, hN, hTmp, hOut)
		b.MovF(hTmp, -1)
		b.MovF(hN, hotspotAmbient)
		b.FFma(hN, hT, hTmp, hN)
		b.MovF(hTmp, 0.08)
		b.FFma(hOut, hN, hTmp, hOut)
	}

	// --- Step 1: global neighbours -> shared tile ---
	b.Mov(hOut, hT) // border/outside default: copy through
	b.If(isa.P(1), func() {
		stencil(func(dx, dy int32) {
			b.Gld(hTmp, hAddr, dy*int32(n)+dx)
		})
	})
	b.IMadI(hSIdx, hLy, hsTile, hLx)
	b.Sst(hSIdx, 0, hOut)
	b.Bar()

	// --- Step 2: shared neighbours; only tile-interior threads have all
	// neighbours staged ---
	b.Mov(hT, hOut) // step-1 value becomes the centre
	b.Mov(hOut, hT)
	// Tile-interior predicate P2: 0 < lx,ly < 15.
	b.ISetPI(isa.P(2), isa.CmpGT, hLx, 0)
	b.MovI(hTmp, 0)
	b.If(isa.P(2), func() {
		b.ISetPI(isa.P(5), isa.CmpLT, hLx, hsTile-1)
		b.If(isa.P(5), func() {
			b.ISetPI(isa.P(5), isa.CmpGT, hLy, 0)
			b.If(isa.P(5), func() {
				b.ISetPI(isa.P(5), isa.CmpLT, hLy, hsTile-1)
				b.If(isa.P(5), func() { b.MovI(hTmp, 1) })
			})
		})
	})
	b.ISetPI(isa.P(2), isa.CmpEQ, hTmp, 1)
	// Recompute the domain-interior predicate (P1 survives in registers).
	b.If(isa.P(2), func() {
		b.If(isa.P(1), func() {
			stencil(func(dx, dy int32) {
				b.Sld(hTmp, hSIdx, dy*hsTile+dx)
			})
		})
	})

	// --- Commit: only the inner 8x8 core writes back ---
	b.ISetPI(isa.P(3), isa.CmpGE, hLx, hsHalo)
	b.MovI(hTmp, 0)
	b.If(isa.P(3), func() {
		b.ISetPI(isa.P(5), isa.CmpLT, hLx, hsTile-hsHalo)
		b.If(isa.P(5), func() {
			b.ISetPI(isa.P(5), isa.CmpGE, hLy, hsHalo)
			b.If(isa.P(5), func() {
				b.ISetPI(isa.P(5), isa.CmpLT, hLy, hsTile-hsHalo)
				b.If(isa.P(5), func() { b.MovI(hTmp, 1) })
			})
		})
	})
	b.ISetPI(isa.P(3), isa.CmpEQ, hTmp, 1)
	b.If(isa.P(3), func() {
		b.If(isa.P(0), func() {
			b.IMadI(hAddr, hGy, int32(n), hGx)
			b.Gst(hAddr, int32(2*n*n), hOut)
		})
	})
	return kasm.MustFinalize(b)
}

// NewHotspot builds the Hotspot application (Table III: "Hotspot,
// 1024x1024, Physics simulation"): `iters` pyramid launches (two stencil
// steps each) on an n x n grid with ping-pong buffers. n must be a power
// of two, n >= 16.
func NewHotspot(n, iters int) *Workload {
	prog := buildHotspot(n)
	grid := (n / hsCore) * (n / hsCore)
	return &Workload{
		Name:   "Hotspot",
		Domain: "Physics simulation",
		Size:   sizeStr(n),
		run: func(rt Runner) ([]uint32, error) {
			var l emu.Launch // one per run, assigned whole before each launch
			g := arena(rt, 3*n*n)
			fillMatrix(g[:n*n], n*n, 0xB001, 20, 80)      // temperatures
			fillMatrix(g[n*n:2*n*n], n*n, 0xB002, 0, 0.5) // power map
			for it := 0; it < iters; it++ {
				l = emu.Launch{Prog: prog, Grid: grid, Block: hsBlock, Global: g, SharedWords: hsBlock}
				if err := rt.Launch(&l); err != nil {
					return nil, err
				}
				replay.HostCopy(rt, g, 0, 2*n*n, n*n)
			}
			return copyOut(g, 0, n*n), nil
		},
	}
}
