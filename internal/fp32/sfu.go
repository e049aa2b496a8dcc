package fp32

import "math"

// This file defines the special-function unit (SFU) algorithms. The G80
// SFU evaluates transcendentals by table-driven quadratic interpolation;
// we model it as fixed Horner polynomial chains over the package's FTZ
// arithmetic. Every multiply/add below is one SFU pipeline stage in the
// RTL model (internal/rtl), which replays the identical chain through its
// stage registers — so fault-free RTL output equals these functions
// bit-for-bit.

// Sin polynomial coefficients (odd Taylor series of sin to x^13,
// float32-rounded; truncation error < 1e-9 on |x| <= pi/2).
var SinCoeffs = [6]float32{
	1.6059044e-10,  // x^13
	-2.5052108e-8,  // x^11
	2.7557319e-6,   // x^9
	-1.9841270e-4,  // x^7
	8.3333333e-3,   // x^5
	-1.66666667e-1, // x^3
}

// Sin approximates sin(a) for |a| <= pi/2 without range reduction, the
// operating regime the paper uses for SFU characterisation (§V-A: inputs
// "in the range 0 to pi/2, avoiding range reduction procedures").
// Outside that range the polynomial simply extrapolates, as the hardware
// fast path would.
func Sin(a float32) float32 {
	a = FTZ(a)
	if a != a {
		return a
	}
	x2 := Mul(a, a)
	// Horner: p = ((((c13*x2 + c11)*x2 + c9)*x2 + c7)*x2 + c5)*x2 + c3
	p := SinCoeffs[0]
	for _, c := range SinCoeffs[1:] {
		p = Fma(p, x2, c)
	}
	// sin(x) = x + x*x2*p = fma(x*x2, p, x)
	return Fma(Mul(a, x2), p, a)
}

// Exp polynomial coefficients for e^f on |f| <= ln2/2 (Taylor, float32).
var ExpCoeffs = [5]float32{
	8.3333333e-3, // f^5 / 120... (1/120)
	4.1666668e-2, // 1/24
	1.6666667e-1, // 1/6
	0.5,
	1.0,
}

// Exp argument-reduction constants: x = n*ln2 + f with ln2 split in two
// parts for accuracy.
const (
	Log2E      float32 = 1.4426950
	Ln2Hi      float32 = 0.693359375    // exact in 10 bits
	Ln2Lo      float32 = -2.12194440e-4 // ln2 - Ln2Hi
	expClampHi         = 88.72284       // ln(MaxFloat32)
	expClampLo         = -87.33655      // ln(min normal float32)
)

// Exp approximates e^a. Overflow saturates to +Inf, underflow flushes to
// zero (FTZ).
func Exp(a float32) float32 {
	a = FTZ(a)
	switch {
	case a != a:
		return a
	case a > expClampHi:
		return float32(math.Inf(1))
	case a < expClampLo:
		return 0
	}
	// n = round(a / ln2)
	t := Mul(a, Log2E)
	n := F2I(Add(t, signedHalf(t)))
	nf := I2F(n)
	// f = a - n*ln2, in two steps.
	f := Fma(nf, -Ln2Hi, a)
	f = Fma(nf, -Ln2Lo, f)
	// Horner: p = ((((c5*f + c4)*f + c3)*f + c2)*f + c1)*f + 1
	p := ExpCoeffs[0]
	p = Fma(p, f, ExpCoeffs[1])
	p = Fma(p, f, ExpCoeffs[2])
	p = Fma(p, f, ExpCoeffs[3])
	p = Fma(p, f, ExpCoeffs[4])
	p = Fma(p, f, 1.0)
	return Ldexp(p, n)
}

func signedHalf(t float32) float32 {
	if t < 0 {
		return -0.5
	}
	return 0.5
}

// Ldexp scales a normal float32 by 2^n with FTZ underflow and infinity
// overflow, modelling the SFU exponent-adjust stage.
func Ldexp(f float32, n int32) float32 {
	u := Unpack(math.Float32bits(f))
	switch u.Cls {
	case ClsZero:
		return math.Float32frombits(packZero(u.Sign))
	case ClsInf:
		return math.Float32frombits(packInf(u.Sign))
	case ClsNaN:
		return f
	}
	e := u.Exp + n
	if e > 127 {
		return math.Float32frombits(packInf(u.Sign))
	}
	if e < -126 {
		return math.Float32frombits(packZero(u.Sign))
	}
	return math.Float32frombits(Pack(u.Sign, e, u.Man))
}

// RcpMagic seeds the reciprocal Newton iteration.
const RcpMagic uint32 = 0x7EF311C3

// Rcp approximates 1/a with a bit-trick seed refined by three Newton
// iterations (each iteration is two SFU pipeline stages).
func Rcp(a float32) float32 {
	a = FTZ(a)
	b := math.Float32bits(a)
	u := Unpack(b)
	switch u.Cls {
	case ClsNaN:
		return a
	case ClsZero:
		return math.Float32frombits(packInf(u.Sign))
	case ClsInf:
		return math.Float32frombits(packZero(u.Sign))
	}
	y := math.Float32frombits(RcpMagic - b)
	for i := 0; i < 3; i++ {
		e := Fma(-a, y, 1.0) // e = 1 - a*y
		y = Fma(y, e, y)     // y = y + y*e
	}
	return FTZ(y)
}

// RsqrtMagic seeds the inverse-square-root Newton iteration.
const RsqrtMagic uint32 = 0x5F3759DF

// Rsqrt approximates 1/sqrt(a) with the classic bit-trick seed refined by
// three Newton iterations.
func Rsqrt(a float32) float32 {
	a = FTZ(a)
	b := math.Float32bits(a)
	u := Unpack(b)
	switch {
	case u.Cls == ClsNaN:
		return a
	case u.Cls == ClsZero:
		return math.Float32frombits(packInf(u.Sign))
	case u.Sign == 1:
		return math.Float32frombits(quietNaN)
	case u.Cls == ClsInf:
		return 0
	}
	y := math.Float32frombits(RsqrtMagic - b>>1)
	halfA := Mul(a, 0.5)
	for i := 0; i < 3; i++ {
		// y = y * (1.5 - halfA*y*y)
		t := Mul(y, y)
		t = Fma(-halfA, t, 1.5)
		y = Mul(y, t)
	}
	return FTZ(y)
}
