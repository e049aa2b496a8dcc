package fp32

import (
	"math"
	"testing"
)

// fmaFallsBack reports whether FmaBits resolves the operands on the
// soft datapath instead of natively. FmaBits has no switch to observe, so
// this reads its guards: with three normal operands the native result is
// returned exactly when it passes fastResult, and the datapath's own
// answer fails fastResult in the same cases (biased exponent 0, 1 or 0xFF
// on either rounding grid), so the final bits tell; for any other operand
// mix fmaTrivial decides.
func fmaFallsBack(ab, bb, cb uint32) bool {
	if bothNormal(ab, bb) && (cb>>23&0xFF)-1 < 0xFE {
		return !fastResult(FmaBits(ab, bb, cb))
	}
	_, ok := fmaTrivial(ab, bb, cb)
	return !ok
}

// onMidpoint reports whether the 53-bit a*b+c sits on a binary32 rounding
// midpoint — the cases FmaBits used to hand to the datapath wholesale.
func onMidpoint(ab, bb, cb uint32) bool {
	s := math.FMA(float64(math.Float32frombits(ab)), float64(math.Float32frombits(bb)), float64(math.Float32frombits(cb)))
	return math.Float64bits(s)&0x1FFFFFFF == 0x10000000
}

// TestFmaMidpointsAndZeroOperands pins the cases FmaBits resolves without
// the datapath — genuine binary32 ties, ties the 53-bit rounding
// manufactured from a value just below or just above the midpoint, each
// in both signs, and the zero-operand shapes — to hand-derived bits and to
// the datapath, and the flush and overflow edges to the fallback.
func TestFmaMidpointsAndZeroOperands(t *testing.T) {
	const (
		one      = 0x3F800000 // 1
		onePlus1 = 0x3F800001 // 1 + 2^-23
		onePlus2 = 0x3F800002 // 1 + 2^-22
		onePlus3 = 0x3F800003 // 1 + 3*2^-23
		three    = 0x40400000
		half24   = 0x33800000 // 2^-24: half an ulp of 1
		// (1 - 2^-23) * 2^-24; times 1+2^-23 it is 2^-24 - 2^-70, half an
		// ulp of 1 less a residue the 53-bit sum cannot hold.
		shortHalf = 0x337FFFFE
		neg       = 0x80000000
	)
	cases := []struct {
		name     string
		a, b, c  uint32
		want     uint32
		midpoint bool // three normal operands whose 53-bit sum sits on a binary32 midpoint
		fallback bool
	}{
		// 1 + 2^-24: halfway between 1 and 1+2^-23, even is 1.
		{"genuine tie, rounds down to even", one, half24, one, one, true, false},
		// 1 + 3*2^-24: halfway between 1+2^-23 and 1+2^-22, even is the upper.
		{"genuine tie, rounds up to even", three, half24, one, onePlus2, true, false},
		{"genuine tie, negative", three | neg, half24, one | neg, onePlus2 | neg, true, false},
		// 1+2^-23 + 2^-24 - 2^-70: below the midpoint, so 1+2^-23; the
		// 53-bit sum is the midpoint itself, whose even neighbour is 1+2^-22.
		{"manufactured tie, exact value below", onePlus1, shortHalf, onePlus1, onePlus1, true, false},
		{"manufactured tie, exact value below, negative", onePlus1 | neg, shortHalf, onePlus1 | neg, onePlus1 | neg, true, false},
		// 1+3*2^-23 - 2^-24 + 2^-70: above the midpoint of 1+2^-22 and
		// 1+3*2^-23, so the latter; the midpoint's even neighbour is 1+2^-22.
		{"manufactured tie, exact value above", onePlus1 | neg, shortHalf, onePlus3, onePlus3, true, false},
		{"manufactured tie, exact value above, negative", onePlus1, shortHalf, onePlus3 | neg, onePlus3 | neg, true, false},

		{"zero addend: the rounded product", three, onePlus1, 0, 0x40400002, false, false}, // 3 + 3*2^-23 ties to even
		{"flushed addend", three, three, 0x00000001, 0x41100000, false, false},
		{"negative zero addend", three, three | neg, neg, 0xC1100000, false, false},
		{"zero factor: the addend", 0, three, onePlus1, onePlus1, false, false},
		{"flushed factor", three, 0x807FFFFF, onePlus1 | neg, onePlus1 | neg, false, false},
		{"both factors zero", neg, 0, three, three, false, false},
		{"zero addend, product below 2^-126 flushes", 0x1F800000, 0x1F800000, 0, 0, false, false}, // MulBits' own datapath

		{"zero factor times infinity is NaN", 0, 0x7F800000, one, quietNaN, false, true},
		{"zero factor, zero addend: signed zero rule", neg, three, 0, 0, false, true},
		{"result just above 2^-126", 0x1F800000, 0x1F800000, 0x00800000, 0x00A00000, false, true}, // 2^-128 + 2^-126
		{"result below 2^-126 flushes", 0x1F800000, 0xA0000000, 0x00800000, 0, false, true},       // 2^-126 - 2^-127
		{"overflow", 0x7F000000, 0x3FC00000, 0x7F000000, 0x7F800000, false, true},
		{"exact cancellation", three, three, 0xC1100000, 0, false, true},
	}
	for _, tc := range cases {
		got, slow := FmaBits(tc.a, tc.b, tc.c), fmaBitsSlow(tc.a, tc.b, tc.c)
		if got != tc.want || slow != tc.want {
			t.Errorf("%s: FmaBits(%#x, %#x, %#x) = %#x, datapath %#x, want %#x", tc.name, tc.a, tc.b, tc.c, got, slow, tc.want)
		}
		normal3 := bothNormal(tc.a, tc.b) && (tc.c>>23&0xFF)-1 < 0xFE
		if mid := normal3 && onMidpoint(tc.a, tc.b, tc.c); mid != tc.midpoint {
			t.Errorf("%s: 53-bit sum on a binary32 midpoint = %v, want %v", tc.name, mid, tc.midpoint)
		}
		if fb := fmaFallsBack(tc.a, tc.b, tc.c); fb != tc.fallback {
			t.Errorf("%s: falls back to the datapath = %v, want %v", tc.name, fb, tc.fallback)
		}
	}
}

// squeeze makes a bit pattern tie-prone: it keeps the sign, pulls the
// exponent to within ±8 of 1.0's and keeps only the top keep bits of the
// mantissa plus its lowest bit.
func squeeze(v uint32, keep uint8) uint32 {
	k := uint(keep%12) + 1
	man := v & 0x7FFFFF & (^uint32(0)<<(23-k) | 1)
	exp := 127 - 8 + (v>>23&0xFF)%17
	return v&0x80000000 | exp<<23 | man
}

// FuzzFmaBitsVsDatapath holds FmaBits to the single-rounding datapath on
// the raw operands and on their tie-prone squeeze: few mantissa bits and
// near-equal exponents are what put a*b+c on binary32 midpoints.
func FuzzFmaBitsVsDatapath(f *testing.F) {
	f.Add(uint32(0x3F800001), uint32(0x337FFFFE), uint32(0x3F800003), uint8(3))
	f.Add(uint32(0x40400000), uint32(0x33800000), uint32(0xBF800000), uint8(0))
	f.Add(uint32(0x3E194000), uint32(0x3C000000), uint32(0xC268C000), uint8(7))
	f.Add(uint32(0xC180012C), uint32(0x2DFFFDA8), uint32(0xBC489901), uint8(11))
	f.Add(uint32(0x1F800000), uint32(0x1F800000), uint32(0x00800000), uint8(1))
	f.Add(uint32(0), uint32(0x7F800000), uint32(0x3F800000), uint8(5))
	f.Fuzz(func(t *testing.T, ab, bb, cb uint32, keep uint8) {
		for _, op := range [][3]uint32{
			{ab, bb, cb},
			{squeeze(ab, keep), squeeze(bb, keep>>2), squeeze(cb, keep>>4)},
		} {
			if got, want := FmaBits(op[0], op[1], op[2]), fmaBitsSlow(op[0], op[1], op[2]); got != want {
				t.Fatalf("FmaBits(%#x, %#x, %#x) = %#x, datapath %#x", op[0], op[1], op[2], got, want)
			}
		}
	})
}
