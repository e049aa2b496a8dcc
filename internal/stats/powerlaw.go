package stats

import (
	"errors"
	"math"
	"sort"
)

// PowerLaw is a continuous Pareto-type distribution
// p(x) ∝ x^-alpha for x >= Xmin, the model the paper fits to the fault
// syndromes (§V-C, citing Clauset, Shalizi & Newman, SIAM Review 2009).
type PowerLaw struct {
	Alpha float64 `json:"alpha"` // scaling exponent (> 1)
	Xmin  float64 `json:"xmin"`  // lower bound of power-law behaviour
	KS    float64 `json:"ks"`    // Kolmogorov–Smirnov distance of the fit
	NTail int     `json:"ntail"` // observations at or above Xmin
}

// Sample draws one value using the paper's Equation 1:
//
//	relative_error = Xmin * (1-r)^(-1/(alpha-1))
//
// with r uniform in [0, 1).
func (p PowerLaw) Sample(r *RNG) float64 {
	u := r.Float64()
	return p.Xmin * math.Pow(1-u, -1/(p.Alpha-1))
}

// CDF returns P(X <= x) for the fitted tail model.
func (p PowerLaw) CDF(x float64) float64 {
	if x < p.Xmin {
		return 0
	}
	return 1 - math.Pow(x/p.Xmin, 1-p.Alpha)
}

// Quantile inverts the CDF.
func (p PowerLaw) Quantile(q float64) float64 {
	if q <= 0 {
		return p.Xmin
	}
	if q >= 1 {
		return math.Inf(1)
	}
	return p.Xmin * math.Pow(1-q, -1/(p.Alpha-1))
}

// ErrTooFewPoints is returned when a sample is too small to fit.
var ErrTooFewPoints = errors.New("stats: too few positive observations for power-law fit")

// alphaMLE computes the continuous maximum-likelihood exponent for the
// tail of sorted data starting at index i0 (xmin = sorted[i0]).
func alphaMLE(sorted []float64, i0 int) float64 {
	xmin := sorted[i0]
	n := float64(len(sorted) - i0)
	var s float64
	for _, x := range sorted[i0:] {
		s += math.Log(x / xmin)
	}
	if s == 0 {
		return math.Inf(1)
	}
	return 1 + n/s
}

// ksDistance computes the KS statistic between the empirical tail CDF and
// the fitted power law, giving up as soon as the statistic is known to be
// at least bound: the running maximum only grows, so a candidate that has
// reached the best distance so far can no longer win FitPowerLaw's strict
// comparison, and the value returned for it (somewhere in [bound, KS]) is
// never stored.
func ksDistance(sorted []float64, i0 int, alpha, bound float64) float64 {
	xmin := sorted[i0]
	n := len(sorted) - i0
	var maxD float64
	for i := 0; i < n && maxD < bound; i++ {
		x := sorted[i0+i]
		model := 1 - math.Pow(x/xmin, 1-alpha)
		empLo := float64(i) / float64(n)
		empHi := float64(i+1) / float64(n)
		d := math.Max(math.Abs(model-empLo), math.Abs(model-empHi))
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// FitPowerLaw fits a continuous power law to the positive values of xs
// using the Clauset–Shalizi–Newman procedure: for each candidate xmin the
// exponent is estimated by MLE and the xmin with the smallest KS distance
// between data and model tail is selected. Non-positive and non-finite
// observations are discarded (a syndrome of exactly zero carries no
// magnitude information).
func FitPowerLaw(xs []float64) (PowerLaw, error) {
	pos := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) {
			pos = append(pos, x)
		}
	}
	const minTail = 8
	if len(pos) < minTail {
		return PowerLaw{}, ErrTooFewPoints
	}
	sort.Float64s(pos)

	// Candidate xmins: every distinct value whose tail keeps at least
	// minTail points. For very large samples, subsample candidates to
	// bound the O(n^2) scan.
	maxI0 := len(pos) - minTail
	step := 1
	const maxCandidates = 512
	if maxI0 > maxCandidates {
		step = maxI0 / maxCandidates
	}
	best := PowerLaw{KS: math.Inf(1)}
	for i0 := 0; i0 <= maxI0; i0 += step {
		if i0 > 0 && pos[i0] == pos[i0-1] {
			continue // same xmin as previous candidate
		}
		alpha := alphaMLE(pos, i0)
		if math.IsInf(alpha, 1) || alpha <= 1 {
			continue
		}
		ks := ksDistance(pos, i0, alpha, best.KS)
		if ks < best.KS {
			best = PowerLaw{Alpha: alpha, Xmin: pos[i0], KS: ks, NTail: len(pos) - i0}
		}
	}
	if math.IsInf(best.KS, 1) {
		return PowerLaw{}, ErrTooFewPoints
	}
	return best, nil
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
