package apps

import (
	"math"
	"testing"

	"gpufi/internal/fp32"
	"gpufi/internal/replay"
)

// TestGaussianSolvesSystem back-substitutes the triangularised system on
// the host and verifies A·x ≈ b against the original inputs.
func TestGaussianSolvesSystem(t *testing.T) {
	const n = 16
	w := NewGaussian(n)
	out, err := w.ExecuteWith(&replay.Plain{})
	if err != nil {
		t.Fatal(err)
	}
	u := make([][]float64, n) // triangularised matrix
	for i := range u {
		u[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			u[i][j] = float64(fromBits(out[i*n+j]))
		}
	}
	bv := make([]float64, n)
	for i := range bv {
		bv[i] = float64(fromBits(out[n*n+i]))
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := bv[i]
		for j := i + 1; j < n; j++ {
			s -= u[i][j] * x[j]
		}
		x[i] = s / u[i][i]
	}
	// Original system.
	a0 := make([]uint32, n*n)
	fillMatrix(a0, n*n, 0xC001, 1, 4)
	for i := 0; i < n; i++ {
		a0[i*n+i] = f32(fromBits(a0[i*n+i]) + float32(n))
	}
	b0 := make([]uint32, n)
	fillMatrix(b0, n, 0xC002, -1, 1)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += float64(fromBits(a0[i*n+j])) * x[j]
		}
		if math.Abs(s-float64(fromBits(b0[i]))) > 1e-3 {
			t.Fatalf("row %d: A·x = %v, b = %v", i, s, fromBits(b0[i]))
		}
	}
}

// TestHotspotPyramidMatchesHostReference reproduces one pyramid launch
// (two stencil steps) on the host with identical fp32 semantics.
func TestHotspotPyramidMatchesHostReference(t *testing.T) {
	const n = 16
	w := NewHotspot(n, 1)
	out, err := w.ExecuteWith(&replay.Plain{})
	if err != nil {
		t.Fatal(err)
	}

	temp := make([]float32, n*n)
	power := make([]float32, n*n)
	tw := make([]uint32, n*n)
	pw := make([]uint32, n*n)
	fillMatrix(tw, n*n, 0xB001, 20, 80)
	fillMatrix(pw, n*n, 0xB002, 0, 0.5)
	for i := range temp {
		temp[i] = fromBits(tw[i])
		power[i] = fromBits(pw[i])
	}

	step := func(in []float32) []float32 {
		out := make([]float32, n*n)
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				i := y*n + x
				tv := in[i]
				if x == 0 || x == n-1 || y == 0 || y == n-1 {
					out[i] = tv
					continue
				}
				nb := fp32.Add(in[i-n], in[i+n])
				nb = fp32.Add(nb, in[i-1])
				nb = fp32.Add(nb, in[i+1])
				nb = fp32.Fma(tv, -4, nb)
				o := fp32.Fma(power[i], 0.1, tv)
				o = fp32.Fma(nb, 0.125, o)
				amb := fp32.Fma(tv, -1, hotspotAmbient)
				out[i] = fp32.Fma(amb, 0.08, o)
			}
		}
		return out
	}
	want := step(step(temp))
	for i := range want {
		if got := fromBits(out[i]); math.Float32bits(got) != math.Float32bits(want[i]) {
			t.Fatalf("cell %d = %v, want %v (bitwise)", i, got, want[i])
		}
	}
}

// TestLUDMatchesUnblockedDoolittle checks that blocked LUD produces the
// same factors as a host Doolittle elimination within float tolerance.
func TestLUDMatchesUnblockedDoolittle(t *testing.T) {
	const n = 16
	w := NewLUD(n)
	out, err := w.ExecuteWith(&replay.Plain{})
	if err != nil {
		t.Fatal(err)
	}
	// Host Doolittle in float64 on the same input.
	a := make([][]float64, n)
	init := make([]uint32, n*n)
	fillMatrix(init, n*n, 0xD001, -1, 1)
	for i := range a {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			v := float64(fromBits(init[i*n+j]))
			if i == j {
				v += n
			}
			a[i][j] = v
		}
	}
	for k := 0; k < n-1; k++ {
		for i := k + 1; i < n; i++ {
			a[i][k] /= a[k][k]
			for j := k + 1; j < n; j++ {
				a[i][j] -= a[i][k] * a[k][j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := float64(fromBits(out[i*n+j]))
			want := a[i][j]
			if math.Abs(got-want) > 1e-2*(1+math.Abs(want)) {
				t.Fatalf("LU[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestPresetSuiteConstructs ensures the paper-size presets assemble (they
// are not executed here; a 2048x2048 LUD run is hours of interpretation).
func TestPresetSuiteConstructs(t *testing.T) {
	suite := PresetSuite()
	if len(suite) != 6 {
		t.Fatalf("preset suite = %d apps", len(suite))
	}
	for _, w := range suite {
		if w.run == nil {
			t.Errorf("%s has no executor", w.Name)
		}
	}
}

// TestLavaCutoffMasks verifies the LavaMD cutoff semantics: pairs beyond
// the radius contribute nothing.
func TestLavaCutoffMasks(t *testing.T) {
	// With the deterministic inputs, at least one particle pair must be
	// beyond the cutoff and at least one within (otherwise the test
	// inputs are degenerate).
	const boxes, per = 2, 16
	const n = boxes * per
	mk := func(seed uint64, lo, hi float64) []float32 {
		words := make([]uint32, n)
		fillMatrix(words, n, seed, lo, hi)
		vals := make([]float32, n)
		for i, b := range words {
			vals[i] = fromBits(b)
		}
		return vals
	}
	x, y, z := mk(0xE001, -1.5, 1.5), mk(0xE002, -1.5, 1.5), mk(0xE003, -1.5, 1.5)
	within, beyond := 0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dx := float64(x[i] - x[j])
			dy := float64(y[i] - y[j])
			dz := float64(z[i] - z[j])
			if dx*dx+dy*dy+dz*dz < lavaCutoff {
				within++
			} else {
				beyond++
			}
		}
	}
	if within == 0 || beyond == 0 {
		t.Fatalf("degenerate cutoff exercise: within=%d beyond=%d", within, beyond)
	}
}

// PresetSuite returns the applications at the paper's nominal sizes
// (Table III). These runs are slow under an interpreter and are meant for
// one-off validation, not injection campaigns.
func PresetSuite() []*Workload {
	return []*Workload{
		NewMxM(512),
		NewLava(2, 128),
		NewQuicksort(1 << 20 / 4), // 4 MB of 32-bit keys... capped to one block width segments
		NewHotspot(1024, 32),
		NewLUD(2048),
		NewGaussian(256),
	}
}
