// Package fp32 implements the single-precision floating-point semantics of
// the modelled GPU: IEEE-754 binary32 with round-to-nearest-even and
// flush-to-zero (FTZ) for subnormal inputs and outputs, matching the
// NVIDIA G80 FP32 pipeline that FlexGripPlus models.
//
// Both the functional emulator (internal/emu) and the RTL datapath
// (internal/rtl) compute through this package, so their fault-free results
// are identical by construction; the RTL unit additionally exposes every
// intermediate value as a named stage register for fault injection.
package fp32

import (
	"math"
	"math/bits"
)

// Class partitions float32 values after FTZ.
type Class uint8

// Value classes.
const (
	ClsZero Class = iota // true zero or flushed subnormal
	ClsNorm
	ClsInf
	ClsNaN
)

const (
	expBias  = 127
	quietNaN = 0x7FC00000
)

// Unpacked is a decomposed float32 operand as held in the RTL unpack-stage
// registers.
type Unpacked struct {
	Cls  Class
	Sign uint32 // 0 or 1
	Exp  int32  // unbiased exponent (ClsNorm only)
	Man  uint32 // 24-bit significand with implicit leading one (ClsNorm only)
}

// Unpack decomposes the IEEE bits of v, flushing subnormals to zero.
func Unpack(bitsV uint32) Unpacked {
	u := Unpacked{Sign: bitsV >> 31}
	e := int32(bitsV>>23) & 0xFF
	m := bitsV & 0x7FFFFF
	switch {
	case e == 0xFF && m != 0:
		u.Cls = ClsNaN
	case e == 0xFF:
		u.Cls = ClsInf
	case e == 0:
		u.Cls = ClsZero // FTZ: subnormal treated as zero
	default:
		u.Cls = ClsNorm
		u.Exp = e - expBias
		u.Man = m | 1<<23
	}
	return u
}

// Pack reassembles IEEE bits from sign/exponent/24-bit significand. The
// significand must be normalized (bit 23 set) and the exponent in range.
func Pack(sign uint32, exp int32, man uint32) uint32 {
	return sign<<31 | uint32(exp+expBias)<<23 | (man & 0x7FFFFF)
}

func packZero(sign uint32) uint32 { return sign << 31 }
func packInf(sign uint32) uint32  { return sign<<31 | 0x7F800000 }

// FTZ flushes a subnormal float32 to a zero of the same sign.
func FTZ(f float32) float32 {
	b := math.Float32bits(f)
	if b&0x7F800000 == 0 && b&0x7FFFFF != 0 {
		return math.Float32frombits(b & 0x80000000)
	}
	return f
}

// RoundPack rounds the positive magnitude frac × 2^(exp-pt) to a float32
// with round-to-nearest-even, applying FTZ underflow and infinity overflow.
// pt is the bit position of the binary point's unit bit: the represented
// value is (frac / 2^pt) × 2^exp. frac must be non-zero. This is the
// round/normalise stage of the RTL datapath.
func RoundPack(sign uint32, exp int32, frac uint64, pt int32) uint32 {
	msb := int32(bits.Len64(frac)) - 1
	exp += msb - pt
	// Normalise so the leading one sits at bit 47, collecting sticky.
	var sticky uint64
	switch {
	case msb > 47:
		shift := msb - 47
		sticky = frac & (1<<shift - 1)
		frac >>= shift
	case msb < 47:
		frac <<= 47 - msb
	}
	man := uint32(frac >> 24) // 24-bit significand, leading one at bit 23
	round := frac >> 23 & 1   // round bit
	stickyAll := frac&(1<<23-1) | sticky
	if round == 1 && (stickyAll != 0 || man&1 == 1) {
		man++
		if man == 1<<24 {
			man >>= 1
			exp++
		}
	}
	if exp > 127 {
		return packInf(sign)
	}
	if exp < -126 {
		return packZero(sign) // FTZ underflow
	}
	return Pack(sign, exp, man)
}

// Add returns a+b with RNE and FTZ.
func Add(a, b float32) float32 {
	return math.Float32frombits(AddBits(math.Float32bits(a), math.Float32bits(b)))
}

// bothNormal reports whether both operands have a biased exponent in
// [1, 0xFE] — finite, non-zero, not subnormal. On such inputs FTZ is
// inert and the host's IEEE-754 binary32 arithmetic applies the same
// single round-to-nearest-even the datapath functions below do.
func bothNormal(ab, bb uint32) bool {
	return (ab>>23&0xFF)-1 < 0xFE && (bb>>23&0xFF)-1 < 0xFE
}

// fastResult reports whether a natively computed result can be returned
// bit-identically: biased exponent in [2, 0xFE]. Exponent 0xFF (overflow)
// and 0 (zero or subnormal, where FTZ applies) clearly need the datapath;
// exponent 1 is excluded too because near the 2^-126 boundary the native
// rounding works on the subnormal grid while the datapath rounds on the
// 24-bit normal grid and then flushes, and the two can disagree on
// whether a value just below 2^-126 rounds up into the normal range.
func fastResult(r uint32) bool {
	return (r>>23&0xFF)-2 < 0xFD
}

// AddBits is Add on raw IEEE bit patterns. When both operands are normal
// and the native sum's exponent is safely inside the normal range, the
// host addition already performed the exact same single RNE rounding, so
// its bits are returned directly; every FTZ, zero, overflow and special
// case falls through to the bit-exact datapath.
func AddBits(ab, bb uint32) uint32 {
	if bothNormal(ab, bb) {
		r := math.Float32bits(math.Float32frombits(ab) + math.Float32frombits(bb))
		if fastResult(r) {
			return r
		}
	}
	return addBitsSlow(ab, bb)
}

// addBitsSlow is the unpack/align/add/round datapath for AddBits.
func addBitsSlow(ab, bb uint32) uint32 {
	x, y := Unpack(ab), Unpack(bb)
	switch {
	case x.Cls == ClsNaN || y.Cls == ClsNaN:
		return quietNaN
	case x.Cls == ClsInf && y.Cls == ClsInf:
		if x.Sign != y.Sign {
			return quietNaN
		}
		return packInf(x.Sign)
	case x.Cls == ClsInf:
		return packInf(x.Sign)
	case y.Cls == ClsInf:
		return packInf(y.Sign)
	case x.Cls == ClsZero && y.Cls == ClsZero:
		return packZero(x.Sign & y.Sign) // +0 unless both negative (RNE)
	case x.Cls == ClsZero:
		return Pack(y.Sign, y.Exp, y.Man)
	case y.Cls == ClsZero:
		return Pack(x.Sign, x.Exp, x.Man)
	}
	return addCore(x.Sign, x.Exp, uint64(x.Man), y.Sign, y.Exp, uint64(y.Man), 23)
}

// Aligned is the output of the FP align stage: two magnitudes brought to a
// common scale, larger first, with the smaller's shifted-out bits folded
// into its LSB as a sticky bit. This is the state held in the RTL FP32
// align-stage registers.
type Aligned struct {
	SignB uint32 // sign of the larger magnitude
	SignS uint32 // sign of the smaller magnitude
	Exp   int32  // common exponent (of the larger magnitude)
	FracB uint64 // larger magnitude, shifted left by the guard headroom
	FracS uint64 // smaller magnitude, aligned, sticky folded into bit 0
}

// AlignGuardBits is the headroom Align gives both fractions; RoundPack
// callers must add it to their binary-point position.
const AlignGuardBits = 8

// AlignOrder is the first half of the align stage: order the operands by
// magnitude, apply the guard headroom, and compute the alignment shift
// (saturated to 63). The shift is held in an RTL stage register between
// order and shift — a fault there rescales the result by a power of two,
// one of the avalanche corruption modes behind the paper's many-bit
// output syndromes (§V-C).
func AlignOrder(signX uint32, expX int32, fracX uint64, signY uint32, expY int32, fracY uint64) (al Aligned, shift uint32) {
	fracX <<= AlignGuardBits
	fracY <<= AlignGuardBits
	// Make X the operand with the larger magnitude.
	if expY > expX || (expY == expX && fracY > fracX) {
		signX, signY = signY, signX
		expX, expY = expY, expX
		fracX, fracY = fracY, fracX
	}
	d := expX - expY
	if d > 63 {
		d = 63
	}
	return Aligned{SignB: signX, SignS: signY, Exp: expX, FracB: fracX, FracS: fracY}, uint32(d)
}

// AlignShift is the second half of the align stage: shift the smaller
// fraction right with the sticky bit folded into bit 0. A saturated shift
// (63) reduces any fraction to pure sticky.
func AlignShift(fracS uint64, shift uint32) uint64 {
	if shift == 0 {
		return fracS
	}
	if shift >= 63 {
		if fracS != 0 {
			return 1
		}
		return 0
	}
	sticky := fracS & (1<<shift - 1)
	fracS >>= shift
	if sticky != 0 {
		fracS |= 1
	}
	return fracS
}

// Align orders two signed magnitudes by value and aligns the smaller one
// to the larger one's exponent. Both fractions must share the same
// leading-one position convention (the comparison is lexicographic on
// (exp, frac)) and be non-zero.
func Align(signX uint32, expX int32, fracX uint64, signY uint32, expY int32, fracY uint64) Aligned {
	al, shift := AlignOrder(signX, expX, fracX, signY, expY, fracY)
	al.FracS = AlignShift(al.FracS, shift)
	return al
}

// SumAligned adds or subtracts the aligned magnitudes (the RTL add stage),
// returning the result sign and magnitude. A zero magnitude means exact
// cancellation (+0 under RNE).
func SumAligned(al Aligned) (sign uint32, frac uint64) {
	if al.SignB == al.SignS {
		return al.SignB, al.FracB + al.FracS
	}
	return al.SignB, al.FracB - al.FracS
}

// addCore adds two signed magnitudes (fracX × 2^(expX-pt)) with full
// guard/round/sticky handling. Magnitudes must be non-zero.
func addCore(signX uint32, expX int32, fracX uint64, signY uint32, expY int32, fracY uint64, pt int32) uint32 {
	al := Align(signX, expX, fracX, signY, expY, fracY)
	sign, frac := SumAligned(al)
	if frac == 0 {
		return packZero(0) // exact cancellation: +0 under RNE
	}
	return RoundPack(sign, al.Exp, frac, pt+AlignGuardBits)
}

// Mul returns a*b with RNE and FTZ.
func Mul(a, b float32) float32 {
	return math.Float32frombits(MulBits(math.Float32bits(a), math.Float32bits(b)))
}

// MulBits is Mul on raw IEEE bit patterns, with the same native shortcut
// as AddBits (the 48-bit exact product rounds once either way).
func MulBits(ab, bb uint32) uint32 {
	if bothNormal(ab, bb) {
		r := math.Float32bits(math.Float32frombits(ab) * math.Float32frombits(bb))
		if fastResult(r) {
			return r
		}
	}
	return mulBitsSlow(ab, bb)
}

// mulBitsSlow is the unpack/multiply/round datapath for MulBits.
func mulBitsSlow(ab, bb uint32) uint32 {
	x, y := Unpack(ab), Unpack(bb)
	sign := x.Sign ^ y.Sign
	switch {
	case x.Cls == ClsNaN || y.Cls == ClsNaN:
		return quietNaN
	case x.Cls == ClsInf || y.Cls == ClsInf:
		if x.Cls == ClsZero || y.Cls == ClsZero {
			return quietNaN // inf * 0
		}
		return packInf(sign)
	case x.Cls == ClsZero || y.Cls == ClsZero:
		return packZero(sign)
	}
	p := uint64(x.Man) * uint64(y.Man) // exact, in [2^46, 2^48)
	return RoundPack(sign, x.Exp+y.Exp, p, 46)
}

// Fma returns a*b+c with a single rounding (fused), RNE and FTZ.
func Fma(a, b, c float32) float32 {
	return math.Float32frombits(FmaBits(math.Float32bits(a), math.Float32bits(b), math.Float32bits(c)))
}

// FmaBits is Fma on raw IEEE bit patterns. With three normal operands the
// native shortcut computes through math.FMA on float64, which rounds the
// exact a*b+c once to 53 bits. Converting that to binary32 is a second
// rounding, only hazardous when the 53-bit value lands exactly on a
// binary32 rounding midpoint (low 29 mantissa bits = 0x10000000): the
// 53-bit rounding may have manufactured the tie. Off the midpoint the
// conversion's decision is unaffected by the at-most-half-ulp53 error,
// because midpoints are themselves 53-bit values: a result that is not
// one sits at least a full ulp53 away, twice the rounding error. On it (6 %
// of the paper applications' FFMAs: few-bit mantissas make a*b+c a 25-bit
// value) offMidpoint recovers what the rounding dropped.
func FmaBits(ab, bb, cb uint32) uint32 {
	if bothNormal(ab, bb) && (cb>>23&0xFF)-1 < 0xFE {
		a := float64(math.Float32frombits(ab))
		b := float64(math.Float32frombits(bb))
		c := float64(math.Float32frombits(cb))
		s := math.FMA(a, b, c)
		if math.Float64bits(s)&0x1FFFFFFF == 0x10000000 {
			s = offMidpoint(a*b, c, s)
		}
		if r := math.Float32bits(float32(s)); fastResult(r) {
			return r
		}
	} else if r, ok := fmaTrivial(ab, bb, cb); ok {
		return r
	}
	return fmaBitsSlow(ab, bb, cb)
}

// offMidpoint takes s = p + c rounded to 53 bits and sitting on a binary32
// rounding midpoint (p an exact product of two binary32 values) and returns
// a value that converts to binary32 the way the exact p + c rounds. Knuth's
// TwoSum yields e with p + c == s + e exactly. e == 0: the tie is genuine,
// ties-to-even is the single rounding's. Otherwise the exact sum lies on e's
// side of the midpoint, and so does s stepped one ulp53 that way.
func offMidpoint(p, c, s float64) float64 {
	t := s - p
	if e := (p - (s - t)) + (c - t); e != 0 {
		return math.Nextafter(s, math.Copysign(math.Inf(1), e))
	}
	return s
}

// fmaTrivial resolves a zero operand without the FMA datapath (a flushed
// subnormal is a zero): a zero factor times a finite one leaves a normal
// addend as it is, a zero addend leaves the product of two normal factors.
func fmaTrivial(ab, bb, cb uint32) (uint32, bool) {
	ae, be, ce := ab>>23&0xFF, bb>>23&0xFF, cb>>23&0xFF
	switch {
	case ce-1 < 0xFE:
		return cb, ae == 0 && be != 0xFF || be == 0 && ae != 0xFF
	case ce == 0 && bothNormal(ab, bb):
		return MulBits(ab, bb), true
	}
	return 0, false
}

// fmaBitsSlow is the unpack/multiply/align/add/round datapath for FmaBits.
func fmaBitsSlow(ab, bb, cb uint32) uint32 {
	x, y, z := Unpack(ab), Unpack(bb), Unpack(cb)
	psign := x.Sign ^ y.Sign
	// NaN and infinity handling.
	if x.Cls == ClsNaN || y.Cls == ClsNaN || z.Cls == ClsNaN {
		return quietNaN
	}
	if (x.Cls == ClsInf && y.Cls == ClsZero) || (x.Cls == ClsZero && y.Cls == ClsInf) {
		return quietNaN
	}
	prodInf := x.Cls == ClsInf || y.Cls == ClsInf
	if prodInf {
		if z.Cls == ClsInf && z.Sign != psign {
			return quietNaN
		}
		return packInf(psign)
	}
	if z.Cls == ClsInf {
		return packInf(z.Sign)
	}
	prodZero := x.Cls == ClsZero || y.Cls == ClsZero
	switch {
	case prodZero && z.Cls == ClsZero:
		return packZero(psign & z.Sign)
	case prodZero:
		return Pack(z.Sign, z.Exp, z.Man)
	}
	// Exact 48-bit product, normalised so its leading one sits at bit 47.
	// addCore orders operands by (exponent, fraction) lexicographically,
	// which is only valid when both fractions share the same leading-one
	// position.
	p := uint64(x.Man) * uint64(y.Man) // in [2^46, 2^48)
	pexp := x.Exp + y.Exp + 1
	if p < 1<<47 {
		p <<= 1
		pexp--
	}
	if z.Cls == ClsZero {
		return RoundPack(psign, pexp, p, 47)
	}
	// Align the addend to the same convention: unit bit moves 23 -> 47.
	return addCore(psign, pexp, p, z.Sign, z.Exp, uint64(z.Man)<<24, 47)
}

// Min returns the smaller of a and b (FMNMX semantics: NaN loses).
func Min(a, b float32) float32 {
	a, b = FTZ(a), FTZ(b)
	switch {
	case a != a:
		return b
	case b != b:
		return a
	case a < b:
		return a
	}
	return b
}

// Max returns the larger of a and b (FMNMX semantics: NaN loses).
func Max(a, b float32) float32 {
	a, b = FTZ(a), FTZ(b)
	switch {
	case a != a:
		return b
	case b != b:
		return a
	case a > b:
		return a
	}
	return b
}

// F2I converts to int32 with truncation toward zero, saturating, NaN -> 0
// (CUDA cvt.rzi semantics).
func F2I(a float32) int32 {
	a = FTZ(a)
	switch {
	case a != a:
		return 0
	case a >= 2147483647:
		return math.MaxInt32
	case a <= -2147483648:
		return math.MinInt32
	}
	return int32(a)
}

// I2F converts an int32 to float32 with RNE.
func I2F(v int32) float32 {
	return float32(v) // Go's conversion is RNE; result is always normal
}

// RelErr returns the relative difference |golden-faulty| / |golden| used to
// quantify fault syndromes (§III). When the golden value is zero the
// absolute difference is returned; NaN/Inf corruption yields +Inf.
func RelErr(golden, faulty float64) float64 {
	if golden == faulty {
		return 0
	}
	if math.IsNaN(faulty) || math.IsInf(faulty, 0) || math.IsNaN(golden) || math.IsInf(golden, 0) {
		return math.Inf(1)
	}
	d := math.Abs(golden - faulty)
	if golden == 0 {
		return d
	}
	return d / math.Abs(golden)
}

// RelErrBits computes RelErr on float32 bit patterns.
func RelErrBits(golden, faulty uint32) float64 {
	return RelErr(float64(math.Float32frombits(golden)), float64(math.Float32frombits(faulty)))
}
