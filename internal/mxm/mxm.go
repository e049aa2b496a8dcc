// Package mxm implements the tiled matrix-multiplication mini-app the
// paper characterises at RTL level (§V-A) and reuses inside CNNs: large
// multiplications are split into 8x8 tiles, each assigned to one block of
// 64 threads that stages operands through shared memory between barriers.
//
// The same kernel runs on the RTL machine (one tile, to observe scheduler
// and pipeline fault patterns — Figs. 7–9, Table II) and on the functional
// emulator (full matrices, as the MxM HPC application and the CNN
// convolution engine).
package mxm

import (
	"fmt"
	"math"

	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/stats"
)

// Tile is the blocking factor: 8x8 output elements per block, matching the
// paper's "optimal tile size is of 8x8".
const Tile = 8

// BlockThreads is the thread count per tile block (2 warps, as in the
// paper's micro-benchmarks).
const BlockThreads = Tile * Tile

// Registers used by the kernel.
const (
	rTid    = isa.Reg(1)
	rTx     = isa.Reg(2)  // column within the tile
	rTy     = isa.Reg(3)  // row within the tile
	rRow    = isa.Reg(4)  // global output row
	rCol    = isa.Reg(5)  // global output column
	rAcc    = isa.Reg(6)  // accumulator
	rT      = isa.Reg(7)  // K-tile loop counter
	rAddr   = isa.Reg(8)  // scratch address
	rVal    = isa.Reg(9)  // scratch value
	rSA     = isa.Reg(10) // shared A element
	rSB     = isa.Reg(11) // shared B element
	rCta    = isa.Reg(12) // block index
	rBRow   = isa.Reg(13) // tile row of this block
	rBCol   = isa.Reg(14) // tile column of this block
	rBase   = isa.Reg(15) // scratch base
	rK      = isa.Reg(16) // unrolled inner index source
	rKStage = isa.Reg(17) // shared-memory staging index
)

// Offsets into the global-memory image for C = A x B, all n x n.
func aOffset(int) int32   { return 0 }
func bOffset(n int) int32 { return int32(n * n) }

// COffset returns the word offset of the output matrix.
func COffset(n int) int32 { return int32(2 * n * n) }

// GlobalWords returns the global-memory image size for an n x n multiply.
func GlobalWords(n int) int { return 3 * n * n }

// log2 returns the exponent when n is a power of two.
func log2(n int) (int32, bool) {
	for s := 0; s < 31; s++ {
		if 1<<uint(s) == n {
			return int32(s), true
		}
	}
	return 0, false
}

// Build assembles the tiled-MxM kernel for n x n matrices (n a power of
// two, n >= Tile). Launch it with grid = (n/Tile)^2 blocks of BlockThreads
// threads and 2*Tile*Tile shared words.
func Build(n int) (*kasm.Program, error) {
	if n < Tile {
		return nil, fmt.Errorf("mxm: n=%d smaller than tile %d", n, Tile)
	}
	logTiles, ok := log2(n / Tile)
	if !ok || n%Tile != 0 {
		return nil, fmt.Errorf("mxm: n=%d must be a power-of-two multiple of %d", n, Tile)
	}
	nTiles := int32(n / Tile)
	b := kasm.New(fmt.Sprintf("tmxm%d", n))

	// Thread coordinates within the tile.
	b.S2R(rTid, isa.SRTid)
	b.AndI(rTx, rTid, Tile-1)
	b.Shr(rTy, rTid, 3)

	// Block coordinates: ctaid = brow * nTiles + bcol.
	b.S2R(rCta, isa.SRCtaid)
	b.Shr(rBRow, rCta, logTiles)
	b.AndI(rBCol, rCta, nTiles-1)

	// Global row/col of this thread's output element.
	b.IMulI(rRow, rBRow, Tile)
	b.IAdd(rRow, rRow, rTy)
	b.IMulI(rCol, rBCol, Tile)
	b.IAdd(rCol, rCol, rTx)

	b.MovF(rAcc, 0)
	b.MovI(rT, nTiles)
	// Loop-invariant addressing, hoisted as a register-blocking compiler
	// would: the k-tile loop advances two pointers and is dominated by
	// FFMA work, matching the injectable-instruction mix of compiled
	// GEMM inner loops.
	b.IMadI(rAddr, rRow, int32(n), rTx) // A walker: row*n + t*8+tx
	b.IMadI(rBase, rTy, int32(n), rCol) // B walker: (t*8+ty)*n + col
	b.IMadI(rK, rTy, Tile, isa.RZ)      // shared row base: ty*8
	b.IMadI(rKStage, rTy, Tile, rTx)    // sharedA/B[ty*8+tx]

	b.Label("ktile")
	{
		// Stage A[row][t*8+tx] and B[t*8+ty][col].
		b.Gld(rVal, rAddr, aOffset(n))
		b.Sst(rKStage, 0, rVal)
		b.Gld(rVal, rBase, bOffset(n))
		b.Sst(rKStage, Tile*Tile, rVal)

		b.Bar()

		// Unrolled inner product over the staged tiles:
		// acc += sharedA[ty*8+k] * sharedB[k*8+tx].
		for k := int32(0); k < Tile; k++ {
			b.Sld(rSA, rK, k)
			b.Sld(rSB, rTx, Tile*Tile+k*Tile)
			b.FFma(rAcc, rSA, rSB, rAcc)
		}

		b.Bar()

		b.IAddI(rAddr, rAddr, Tile)          // next A tile column
		b.IAddI(rBase, rBase, int32(Tile*n)) // next B tile row
		b.IAddI(rT, rT, -1)
		b.ISetPI(isa.P(0), isa.CmpGT, rT, 0)
		b.BraIf(isa.P(0), "ktile")
	}

	// C[row][col] = acc.
	b.IMadI(rAddr, rRow, int32(n), rCol)
	b.Gst(rAddr, COffset(n), rAcc)
	return b.Finalize()
}

// Grid returns the block count for an n x n multiply.
func Grid(n int) int { t := n / Tile; return t * t }

// SharedWords is the shared-memory requirement of the kernel.
const SharedWords = 2 * Tile * Tile

// Pack assembles the global-memory image from row-major float32 matrices.
func Pack(a, b []float32, n int) []uint32 {
	g := make([]uint32, GlobalWords(n))
	for i, v := range a {
		g[i] = math.Float32bits(v)
	}
	for i, v := range b {
		g[int(bOffset(n))+i] = math.Float32bits(v)
	}
	return g
}

// ExtractC reads the output matrix from a global-memory image.
func ExtractC(g []uint32, n int) []float32 {
	out := make([]float32, n*n)
	for i := range out {
		out[i] = math.Float32frombits(g[int(COffset(n))+i])
	}
	return out
}

// TileKind selects the t-MxM characterisation input following §V-A: the
// paper picks tiles from CNN feature maps by their content.
type TileKind uint8

// Characterisation tile kinds.
const (
	TileMax    TileKind = iota // highest sum of element values
	TileZero                   // highest number of zeros (feature-map edge)
	TileRandom                 // unbiased interior tile
)

// String implements fmt.Stringer.
func (k TileKind) String() string {
	switch k {
	case TileMax:
		return "Max"
	case TileZero:
		return "Zero"
	default:
		return "Random"
	}
}

// AllTileKinds lists the three characterisation inputs.
func AllTileKinds() []TileKind { return []TileKind{TileMax, TileZero, TileRandom} }

// TileInputs synthesises a pair of 8x8 operand tiles of the given kind.
// The distributions mimic what the paper observed in LeNET/YOLO feature
// maps: Max tiles hold uniformly large activations, Zero tiles are
// padding-dominated (~70% zeros), Random tiles are unbiased.
func TileInputs(kind TileKind, seed uint64) (a, b []float32) {
	r := stats.NewRNG(seed ^ 0xABCD<<16 ^ uint64(kind))
	a = make([]float32, Tile*Tile)
	b = make([]float32, Tile*Tile)
	fill := func(dst []float32) {
		for i := range dst {
			switch kind {
			case TileMax:
				dst[i] = float32(r.Float64Range(1.0, 2.0))
			case TileZero:
				if r.Float64() < 0.7 {
					dst[i] = 0
				} else {
					dst[i] = float32(r.Float64Range(-0.5, 0.5))
				}
			default:
				dst[i] = float32(r.Float64Range(-1.0, 1.0))
			}
		}
	}
	fill(a)
	fill(b)
	return a, b
}
