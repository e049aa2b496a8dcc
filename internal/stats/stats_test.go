package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/1000 identical values", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s1, s2 := r.Split(), r.Split()
	if s1.Uint64() == s2.Uint64() {
		t.Error("split streams start identically")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGFloat64Uniformity(t *testing.T) {
	r := NewRNG(99)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	if d := KSUniformity(xs); d > 0.015 {
		t.Errorf("KS distance from uniform = %v, want < 0.015", d)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) visited only %d values", len(seen))
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(11)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(3)
	const n = 50000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		ss += v * v
	}
	mean := sum / n
	variance := ss/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestLogHistBuckets(t *testing.T) {
	h := NewLogHist(-2, 1) // buckets: <1e-2, 1e-2, 1e-1, 1e0, 1e1, >=1e2
	h.Add(0.001)           // underflow
	h.Add(0.05)            // 1e-2 bucket
	h.Add(0.5)             // 1e-1
	h.Add(1)               // 1e0
	h.Add(25)              // 1e1
	h.Add(500)             // overflow
	h.Add(0)               // underflow
	h.Add(math.Inf(1))     // overflow
	want := []uint64{2, 1, 1, 1, 1, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bucket %d (%s) = %d, want %d", i, h.BucketLabel(i), c, want[i])
		}
	}
	if h.N != 8 {
		t.Errorf("N = %d, want 8", h.N)
	}
}

func TestLogHistBoundaries(t *testing.T) {
	h := NewLogHist(-8, 2)
	h.Add(1e-8) // exactly at lower edge: decade -8
	h.Add(1e2)  // exactly at upper edge: decade 2
	if h.Counts[1] != 1 {
		t.Errorf("1e-8 landed in bucket %v", h.Counts)
	}
	if h.Counts[len(h.Counts)-2] != 1 {
		t.Errorf("1e2 landed in bucket %v", h.Counts)
	}
}

func TestLogHistMergeAndFraction(t *testing.T) {
	a, b := PaperHist(), PaperHist()
	a.Add(0.5)
	b.Add(0.5)
	b.Add(5)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N != 3 {
		t.Errorf("merged N = %d", a.N)
	}
	fr := a.Fraction()
	var sum float64
	for _, f := range fr {
		sum += f
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v", sum)
	}
	if err := a.Merge(NewLogHist(0, 1)); err == nil {
		t.Error("merging different geometries should fail")
	}
}

func TestLogHistMode(t *testing.T) {
	h := PaperHist()
	for i := 0; i < 10; i++ {
		h.Add(0.5) // decade -1
	}
	h.Add(5)
	if h.Mode() != "1e-1" {
		t.Errorf("mode = %s, want 1e-1", h.Mode())
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("bad summary %+v", s)
	}
	if s.Mean != 2.5 || s.Median != 2.5 {
		t.Errorf("mean/median = %v/%v", s.Mean, s.Median)
	}
	if math.Abs(s.Var-5.0/3.0) > 1e-12 {
		t.Errorf("variance = %v, want %v", s.Var, 5.0/3.0)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("empty summary %+v", z)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	if q := Quantile(sorted, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(sorted, 1); q != 5 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(sorted, 0.5); q != 3 {
		t.Errorf("q0.5 = %v", q)
	}
	if q := Quantile(sorted, 0.25); q != 2 {
		t.Errorf("q0.25 = %v", q)
	}
}

func TestWilsonCI(t *testing.T) {
	lo, hi := WilsonCI(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("CI [%v, %v] does not contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("CI too wide: %v", hi-lo)
	}
	lo, hi = WilsonCI(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Errorf("empty-trial CI = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonCI(10, 10, 1.96)
	if hi != 1 || lo < 0.6 {
		t.Errorf("all-success CI = [%v, %v]", lo, hi)
	}
}

func TestWilsonCIBoundsProperty(t *testing.T) {
	f := func(s, n uint16) bool {
		trials := int(n%1000) + 1
		succ := int(s) % (trials + 1)
		lo, hi := WilsonCI(succ, trials, 1.96)
		p := float64(succ) / float64(trials)
		return lo >= 0 && hi <= 1 && lo <= p+1e-12 && hi >= p-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerLawSampleRecoversAlpha(t *testing.T) {
	truth := PowerLaw{Alpha: 2.5, Xmin: 0.01}
	r := NewRNG(123)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = truth.Sample(r)
	}
	fit, err := FitPowerLaw(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 0.1 {
		t.Errorf("fitted alpha = %v, want ~%v", fit.Alpha, truth.Alpha)
	}
	if fit.Xmin > truth.Xmin*2 {
		t.Errorf("fitted xmin = %v, want near %v", fit.Xmin, truth.Xmin)
	}
	if fit.KS > 0.02 {
		t.Errorf("KS = %v for self-generated data", fit.KS)
	}
}

func TestPowerLawSampleBoundsProperty(t *testing.T) {
	p := PowerLaw{Alpha: 2.0, Xmin: 0.5}
	r := NewRNG(77)
	f := func(uint8) bool {
		v := p.Sample(r)
		return v >= p.Xmin && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPowerLawCDFQuantileInverse(t *testing.T) {
	p := PowerLaw{Alpha: 3.0, Xmin: 0.1}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		x := p.Quantile(q)
		if got := p.CDF(x); math.Abs(got-q) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", q, got)
		}
	}
	if p.CDF(0.05) != 0 {
		t.Error("CDF below xmin must be 0")
	}
	if !math.IsInf(p.Quantile(1), 1) {
		t.Error("Quantile(1) must be +Inf")
	}
}

func TestFitPowerLawRejectsSmallSamples(t *testing.T) {
	if _, err := FitPowerLaw([]float64{1, 2, 3}); err == nil {
		t.Error("expected ErrTooFewPoints")
	}
	if _, err := FitPowerLaw([]float64{-1, -2, 0, math.NaN(), math.Inf(1)}); err == nil {
		t.Error("expected error for non-positive sample")
	}
}

func TestFitPowerLawIgnoresNonPositive(t *testing.T) {
	truth := PowerLaw{Alpha: 2.2, Xmin: 1}
	r := NewRNG(5)
	xs := []float64{0, -3, math.NaN()}
	for i := 0; i < 5000; i++ {
		xs = append(xs, truth.Sample(r))
	}
	fit, err := FitPowerLaw(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-truth.Alpha) > 0.15 {
		t.Errorf("alpha = %v", fit.Alpha)
	}
}

func TestShapiroWilkRejectsPowerLaw(t *testing.T) {
	// The paper's §V-C claim: syndrome (power-law) data fails normality.
	p := PowerLaw{Alpha: 2.0, Xmin: 0.001}
	r := NewRNG(9)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = p.Sample(r)
	}
	_, pv, err := ShapiroWilk(xs)
	if err != nil {
		t.Fatal(err)
	}
	if pv >= 0.05 {
		t.Errorf("power-law sample p-value = %v, want < 0.05", pv)
	}
}

func TestShapiroWilkAcceptsNormal(t *testing.T) {
	r := NewRNG(4242)
	rejected := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = 3 + 2*r.NormFloat64()
		}
		w, pv, err := ShapiroWilk(xs)
		if err != nil {
			t.Fatal(err)
		}
		if w < 0.9 {
			t.Errorf("normal sample W = %v", w)
		}
		if pv < 0.05 {
			rejected++
		}
	}
	// Expect roughly 5% false rejections; allow generous slack.
	if rejected > trials/4 {
		t.Errorf("rejected %d/%d normal samples", rejected, trials)
	}
}

func TestShapiroWilkErrors(t *testing.T) {
	if _, _, err := ShapiroWilk([]float64{1, 2}); err == nil {
		t.Error("n=2 should fail")
	}
	if _, _, err := ShapiroWilk(make([]float64, 6000)); err == nil {
		t.Error("n=6000 should fail")
	}
	if _, _, err := ShapiroWilk([]float64{5, 5, 5, 5}); err == nil {
		t.Error("constant sample should fail")
	}
}

func TestNormQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6} {
		z := NormQuantile(p)
		if got := NormCDF(z); math.Abs(got-p) > 1e-9 {
			t.Errorf("NormCDF(NormQuantile(%v)) = %v", p, got)
		}
	}
	if NormQuantile(0.5) != 0 {
		// Acklam central branch is exact at 0.5 after refinement.
		if math.Abs(NormQuantile(0.5)) > 1e-12 {
			t.Errorf("NormQuantile(0.5) = %v", NormQuantile(0.5))
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("NormQuantile must saturate at infinities")
	}
}

func TestKSUniformitySanity(t *testing.T) {
	// Perfectly spaced points have tiny KS distance.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = (float64(i) + 0.5) / 1000
	}
	if d := KSUniformity(xs); d > 0.002 {
		t.Errorf("uniform grid KS = %v", d)
	}
	// Highly skewed points have a large one.
	for i := range xs {
		xs[i] = math.Pow(float64(i)/1000, 8)
	}
	if d := KSUniformity(xs); d < 0.3 {
		t.Errorf("skewed KS = %v", d)
	}
}

func BenchmarkPowerLawSample(b *testing.B) {
	p := PowerLaw{Alpha: 2.3, Xmin: 0.01}
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = p.Sample(r)
	}
}

func BenchmarkFitPowerLaw(b *testing.B) {
	p := PowerLaw{Alpha: 2.3, Xmin: 0.01}
	r := NewRNG(1)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = p.Sample(r)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitPowerLaw(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// CDF returns P(X <= x) for the fitted tail model.
func (p PowerLaw) CDF(x float64) float64 {
	if x < p.Xmin {
		return 0
	}
	return 1 - math.Pow(x/p.Xmin, 1-p.Alpha)
}

// KSUniformity is a two-sided KS test statistic of xs against the uniform
// distribution on [0,1]; used in tests to validate samplers.
func KSUniformity(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var maxD float64
	for i, x := range s {
		d := math.Max(math.Abs(x-float64(i)/float64(n)), math.Abs(x-float64(i+1)/float64(n)))
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			v := r.Float64()
			return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
		}
	}
}
