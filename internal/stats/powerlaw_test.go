package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// fitPowerLawRef is FitPowerLaw as it was before the KS scan learned to
// stop early: every candidate's KS distance is computed in full. The
// syndrome database's fits feed every committed digest, so the bounded
// scan has to select the same PowerLaw bit for bit. ties counts the
// candidates whose full KS distance exactly equals the best one before
// them — the case the strict comparison decides.
func fitPowerLawRef(xs []float64) (best PowerLaw, ties int, err error) {
	pos := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 0) && !math.IsNaN(x) {
			pos = append(pos, x)
		}
	}
	const minTail = 8
	if len(pos) < minTail {
		return PowerLaw{}, 0, ErrTooFewPoints
	}
	sort.Float64s(pos)
	maxI0 := len(pos) - minTail
	step := 1
	const maxCandidates = 512
	if maxI0 > maxCandidates {
		step = maxI0 / maxCandidates
	}
	best = PowerLaw{KS: math.Inf(1)}
	for i0 := 0; i0 <= maxI0; i0 += step {
		if i0 > 0 && pos[i0] == pos[i0-1] {
			continue
		}
		alpha := alphaMLE(pos, i0)
		if math.IsInf(alpha, 1) || alpha <= 1 {
			continue
		}
		xmin := pos[i0]
		n := len(pos) - i0
		var ks float64
		for i := 0; i < n; i++ {
			model := 1 - math.Pow(pos[i0+i]/xmin, 1-alpha)
			d := math.Max(math.Abs(model-float64(i)/float64(n)), math.Abs(model-float64(i+1)/float64(n)))
			if d > ks {
				ks = d
			}
		}
		if ks == best.KS {
			ties++
		}
		if ks < best.KS {
			best = PowerLaw{Alpha: alpha, Xmin: xmin, KS: ks, NTail: n}
		}
	}
	if math.IsInf(best.KS, 1) {
		return PowerLaw{}, ties, ErrTooFewPoints
	}
	return best, ties, nil
}

func TestFitPowerLawBoundedScanMatchesReference(t *testing.T) {
	var fitted, failed, ties int
	check := func(name string, xs []float64) {
		t.Helper()
		want, tie, wantErr := fitPowerLawRef(xs)
		got, gotErr := FitPowerLaw(xs)
		if got != want || gotErr != wantErr {
			t.Fatalf("%s (n=%d): FitPowerLaw = %+v, %v; reference = %+v, %v", name, len(xs), got, gotErr, want, wantErr)
		}
		if wantErr != nil {
			failed++
		} else {
			fitted++
		}
		ties += tie
	}

	// A block of m copies of xmin puts the distance at m/n or above, and
	// here it is the maximum for both xmin = 1 and xmin = 2: 6/18 == 4/12.
	check("tie", []float64{1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4, 8, 8, 8, 8})
	if ties == 0 {
		t.Error("the constructed tie is not an exact KS tie in the reference")
	}

	r := NewRNG(2021)
	truth := PowerLaw{Alpha: 2.3, Xmin: 1e-3}
	var small, large int
	for set := 0; set < 1000; set++ {
		var n int
		switch {
		case set%250 == 0:
			n = 512*8 + 1 + r.Intn(2000) // subsampled candidates
			large++
		case set%10 == 1:
			n = r.Intn(8) // too few points
			small++
		default:
			n = 8 + r.Intn(250)
		}
		xs := make([]float64, n)
		for i := range xs {
			switch set % 4 {
			case 0: // power-law tail, the shape the syndromes have
				xs[i] = truth.Sample(r)
			case 1: // a handful of distinct values: mostly duplicates
				xs[i] = math.Ldexp(1, r.Intn(6))
			case 2: // log-uniform with the odd discarded observation
				xs[i] = math.Exp(r.Float64Range(-12, 4))
				if r.Intn(20) == 0 {
					xs[i] = []float64{0, -1, math.NaN(), math.Inf(1)}[r.Intn(4)]
				}
			default: // quantised power law: duplicates inside a real tail
				xs[i] = math.Round(truth.Sample(r)*2e3) / 2e3
			}
		}
		check(fmt.Sprintf("set %d", set), xs)
	}
	t.Logf("%d fitted, %d unfittable (%d with n<8), %d with n>4096, %d exact KS ties",
		fitted, failed, small, large, ties)
}
