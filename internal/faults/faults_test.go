package faults

import (
	"math"
	"testing"
)

func TestOutcomeStrings(t *testing.T) {
	if Masked.String() != "Masked" || SDC.String() != "SDC" || DUE.String() != "DUE" {
		t.Error("outcome names wrong")
	}
}

func TestModuleInventoryMatchesTableI(t *testing.T) {
	mods := AllModules()
	if len(mods) != 6 {
		t.Fatalf("Table I lists 6 modules, got %d", len(mods))
	}
	names := map[Module]string{
		ModFP32: "FP32", ModINT: "INT", ModSFU: "SFU",
		ModSFUCtl: "SFUctl", ModSched: "Scheduler", ModPipe: "Pipeline",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d name = %s, want %s", m, m, want)
		}
	}
}

// TestParseRoundTrip: ParseModule and ParseRange accept exactly the
// String forms the CLIs print and the job requests spell.
func TestParseRoundTrip(t *testing.T) {
	for _, m := range AllModules() {
		if got, ok := ParseModule(m.String()); !ok || got != m {
			t.Errorf("ParseModule(%q) = %v, %v", m, got, ok)
		}
	}
	for _, r := range AllRanges() {
		if got, ok := ParseRange(r.String()); !ok || got != r {
			t.Errorf("ParseRange(%q) = %v, %v", r, got, ok)
		}
	}
	for _, bad := range []string{"", "fp32", "Module(6)", "XL", "s"} {
		if _, ok := ParseModule(bad); ok {
			t.Errorf("ParseModule(%q) accepted", bad)
		}
		if _, ok := ParseRange(bad); ok {
			t.Errorf("ParseRange(%q) accepted", bad)
		}
	}
}

func TestControlModules(t *testing.T) {
	if !ModSched.IsControl() || !ModSFUCtl.IsControl() {
		t.Error("scheduler and SFU controller are control modules (Table I)")
	}
	if ModFP32.IsControl() || ModINT.IsControl() || ModSFU.IsControl() {
		t.Error("functional units are not control modules")
	}
}

func TestRangeBoundsMatchPaper(t *testing.T) {
	lo, hi := RangeBounds(RangeSmall)
	if lo != 6.8e-6 || hi != 7.3e-6 {
		t.Errorf("S range = [%v, %v]", lo, hi)
	}
	lo, hi = RangeBounds(RangeMedium)
	if lo != 1.8 || hi != 59.4 {
		t.Errorf("M range = [%v, %v]", lo, hi)
	}
	lo, hi = RangeBounds(RangeLarge)
	if lo != 3.8e9 || hi != 12.5e9 {
		t.Errorf("L range = [%v, %v]", lo, hi)
	}
}

func TestClassifyMagnitude(t *testing.T) {
	tests := []struct {
		mag  float64
		want InputRange
	}{
		{0, RangeSmall},
		{1e-9, RangeSmall},
		{7e-6, RangeSmall},
		{0.5, RangeMedium},
		{30, RangeMedium},
		{1e6, RangeMedium},
		{5e9, RangeLarge},
		{math.Inf(1), RangeLarge},
	}
	for _, tt := range tests {
		if got := ClassifyMagnitude(tt.mag); got != tt.want {
			t.Errorf("ClassifyMagnitude(%v) = %v, want %v", tt.mag, got, tt.want)
		}
	}
}

func TestTallyAccounting(t *testing.T) {
	var ty Tally
	ty.Add(Masked, 0)
	ty.Add(SDC, 1)
	ty.Add(SDC, 28)
	ty.Add(DUE, 0)
	if ty.Injections != 4 || ty.Maskeds != 1 || ty.DUEs != 1 {
		t.Errorf("tally = %+v", ty)
	}
	if ty.SDCSingle != 1 || ty.SDCMulti != 1 || ty.SDCs() != 2 {
		t.Errorf("SDC split = %+v", ty)
	}
	if got := ty.AVFSDC(); got != 0.5 {
		t.Errorf("AVF SDC = %v", got)
	}
	if got := ty.AVFDUE(); got != 0.25 {
		t.Errorf("AVF DUE = %v", got)
	}
	if got := ty.MultiShare(); got != 0.5 {
		t.Errorf("multi share = %v", got)
	}
	if got := ty.AvgThreads(); got != 14.5 {
		t.Errorf("avg threads = %v", got)
	}
}

func TestTallyMerge(t *testing.T) {
	var a, b Tally
	a.Add(SDC, 2)
	b.Add(DUE, 0)
	b.Add(Masked, 0)
	a.Merge(b)
	if a.Injections != 3 || a.DUEs != 1 || a.Maskeds != 1 || a.SDCMulti != 1 {
		t.Errorf("merged = %+v", a)
	}
}

func TestTallyZeroDivision(t *testing.T) {
	var ty Tally
	if ty.AVFSDC() != 0 || ty.AVFDUE() != 0 || ty.MultiShare() != 0 || ty.AvgThreads() != 0 {
		t.Error("zero tally must yield zero rates")
	}
}

func TestPatternStrings(t *testing.T) {
	want := map[Pattern]string{
		PatSingle: "single", PatRow: "row", PatCol: "col",
		PatRowCol: "row+col", PatBlock: "block", PatRandom: "random", PatAll: "all",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d = %s, want %s", p, p, s)
		}
	}
}

// IsControl reports whether the module is a control structure (Table I
// "Type" column); the paper finds control modules are the dominant source
// of DUEs and multi-thread corruptions.
func (m Module) IsControl() bool {
	return m == ModSFUCtl || m == ModSched
}
