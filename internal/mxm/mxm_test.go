package mxm

import (
	"math"
	"testing"

	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/fp32"
	"gpufi/internal/rtl"
	"gpufi/internal/stats"
)

func randomMatrix(r *stats.RNG, n int) []float32 {
	m := make([]float32, n*n)
	for i := range m {
		m[i] = float32(r.Float64Range(-2, 2))
	}
	return m
}

func TestBuildRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 4, 12, 24, 17} {
		if _, err := Build(n); err == nil {
			t.Errorf("Build(%d) accepted", n)
		}
	}
}

func TestEmulatorMatchesReference(t *testing.T) {
	r := stats.NewRNG(1)
	for _, n := range []int{8, 16, 32} {
		prog, err := Build(n)
		if err != nil {
			t.Fatal(err)
		}
		a, b := randomMatrix(r, n), randomMatrix(r, n)
		g := Pack(a, b, n)
		if _, err := emu.Run(&emu.Launch{
			Prog: prog, Grid: Grid(n), Block: BlockThreads,
			Global: g, SharedWords: SharedWords,
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := ExtractC(g, n)
		want := Reference(a, b, n)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d C[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestRTLSingleTileMatchesEmulator(t *testing.T) {
	prog, err := Build(Tile)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllTileKinds() {
		a, b := TileInputs(kind, 7)
		gRTL := Pack(a, b, Tile)
		gEmu := Pack(a, b, Tile)
		m := rtl.New()
		if err := m.Run(prog, 1, BlockThreads, gRTL, SharedWords, 2_000_000); err != nil {
			t.Fatalf("%v rtl: %v", kind, err)
		}
		if _, err := emu.Run(&emu.Launch{
			Prog: prog, Grid: 1, Block: BlockThreads,
			Global: gEmu, SharedWords: SharedWords,
		}); err != nil {
			t.Fatalf("%v emu: %v", kind, err)
		}
		for i := range gRTL {
			if gRTL[i] != gEmu[i] {
				t.Fatalf("%v: rtl/emu diverge at %d", kind, i)
			}
		}
	}
}

func TestTileInputsCharacteristics(t *testing.T) {
	aMax, _ := TileInputs(TileMax, 3)
	aZero, _ := TileInputs(TileZero, 3)
	zeros := func(xs []float32) int {
		n := 0
		for _, x := range xs {
			if x == 0 {
				n++
			}
		}
		return n
	}
	sum := func(xs []float32) float64 {
		var s float64
		for _, x := range xs {
			s += float64(x)
		}
		return s
	}
	if zeros(aZero) < Tile*Tile/2 {
		t.Errorf("zero tile has only %d zeros", zeros(aZero))
	}
	if sum(aMax) <= sum(aZero) {
		t.Error("max tile sum must exceed zero tile sum")
	}
	// Deterministic for a given seed.
	x1, _ := TileInputs(TileRandom, 5)
	x2, _ := TileInputs(TileRandom, 5)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("TileInputs not deterministic")
		}
	}
}

func TestCompareFindsCorruption(t *testing.T) {
	golden := []float32{1, 2, 3, 4}
	faulty := []float32{1, 2.5, 3, 4}
	c := Compare(golden, faulty, 2)
	if c.Count != 1 || !c.Bad[1] {
		t.Fatalf("corruption = %+v", c)
	}
	if c.RelErrs[0] != 0.25 {
		t.Errorf("relerr = %v", c.RelErrs[0])
	}
	nan := float32(math.NaN())
	c = Compare([]float32{nan, 1}, []float32{nan, 1}, 1)
	if c.Count != 0 {
		t.Error("NaN == NaN must not count as corruption")
	}
}

func TestPatternClassification(t *testing.T) {
	const n = 8
	mk := func(idx ...int) Corruption {
		c := Corruption{N: n, Bad: make([]bool, n*n), Count: len(idx)}
		for _, i := range idx {
			c.Bad[i] = true
		}
		return c
	}
	row := func(r int, cols ...int) []int {
		out := make([]int, len(cols))
		for i, c := range cols {
			out[i] = r*n + c
		}
		return out
	}
	tests := []struct {
		name string
		c    Corruption
		want faults.Pattern
	}{
		{"single", mk(10), faults.PatSingle},
		{"row", mk(row(3, 0, 1, 2, 5, 7)...), faults.PatRow},
		{"col", mk(0*n+4, 2*n+4, 5*n+4), faults.PatCol},
		{"rowcol", mk(append(row(2, 0, 1, 3, 4), 0*n+5, 4*n+5, 6*n+5)...), faults.PatRowCol},
		{"block", mk(1*n+1, 1*n+2, 2*n+1, 2*n+2), faults.PatBlock},
		{"random", mk(0, 3*n+5, 6*n+2, 7*n+7), faults.PatRandom},
	}
	for _, tt := range tests {
		if got := tt.c.Classify(); got != tt.want {
			t.Errorf("%s: classify = %v, want %v", tt.name, got, tt.want)
		}
	}
	// all: >= 7/8 of the matrix.
	all := Corruption{N: n, Bad: make([]bool, n*n)}
	for i := 0; i < n*n-4; i++ {
		all.Bad[i] = true
		all.Count++
	}
	if got := all.Classify(); got != faults.PatAll {
		t.Errorf("all: classify = %v", got)
	}
}

func TestRowColDoesNotMisfireOnCross(t *testing.T) {
	// A full row plus one element elsewhere that shares no column with
	// at least 2 corrupted entries should be random, not row+col.
	const n = 8
	c := Corruption{N: n, Bad: make([]bool, n*n)}
	for col := 0; col < n; col++ {
		c.Bad[3*n+col] = true
		c.Count++
	}
	c.Bad[5*n+1] = true
	c.Bad[6*n+2] = true
	c.Count += 2
	got := c.Classify()
	if got == faults.PatRowCol || got == faults.PatRow {
		t.Errorf("classify = %v, want random-ish", got)
	}
}

func BenchmarkTiledMxM32Emulator(b *testing.B) {
	prog, err := Build(32)
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(2)
	a, bb := randomMatrix(r, 32), randomMatrix(r, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := Pack(a, bb, 32)
		if _, err := emu.Run(&emu.Launch{
			Prog: prog, Grid: Grid(32), Block: BlockThreads,
			Global: g, SharedWords: SharedWords,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTiledMxMTileRTL(b *testing.B) {
	prog, err := Build(Tile)
	if err != nil {
		b.Fatal(err)
	}
	a, bb := TileInputs(TileRandom, 1)
	m := rtl.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := Pack(a, bb, Tile)
		if err := m.Run(prog, 1, BlockThreads, g, SharedWords, 2_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// Reference computes C = A x B on the host with the exact FTZ/FFMA
// semantics and accumulation order of the kernel, for golden comparisons.
func Reference(a, b []float32, n int) []float32 {
	c := make([]float32, n*n)
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			acc := float32(0)
			for k := 0; k < n; k++ {
				acc = fp32.Fma(a[row*n+k], b[k*n+col], acc)
			}
			c[row*n+col] = acc
		}
	}
	return c
}
