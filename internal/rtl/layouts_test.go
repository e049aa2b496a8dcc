package rtl

import (
	"math/bits"
	"testing"

	"gpufi/internal/faults"
)

func TestLayoutTotalsMatchTableI(t *testing.T) {
	tests := []struct {
		lay  *Layout
		want int
	}{
		{newFP32Layout(), FFCountFP32},
		{newINTLayout(), FFCountINT},
		{newSFULayout(), FFCountSFU},
		{newSFUCtlLayout(), FFCountSFUCtl},
		{newSchedLayout(), FFCountSched},
		{newPipeLayout(), FFCountPipe},
	}
	for _, tt := range tests {
		if tt.lay.Bits != tt.want {
			t.Errorf("%s layout = %d FFs, want %d (Table I); delta %+d",
				tt.lay.Name, tt.lay.Bits, tt.want, tt.lay.Bits-tt.want)
		}
	}
}

func TestPipeDatapathControlSplit(t *testing.T) {
	// The paper: ~84% of pipeline registers store per-core operands,
	// ~16% are control (§V-B).
	lay := newPipeLayout()
	datapath := 0
	for _, f := range lay.Fields {
		if isPipeDatapathField(f.Name) {
			datapath += f.Width
		}
	}
	frac := float64(datapath) / float64(lay.Bits)
	if frac < 0.80 || frac > 0.88 {
		t.Errorf("pipeline datapath share = %.3f (%d bits), want ~0.84", frac, datapath)
	}
}

func TestModuleSizeOrdering(t *testing.T) {
	// Sanity relations the paper draws on: FP32 is ~3x larger than INT
	// (4451/1542 = 2.89 in Table I; the text rounds to "more than 3x"),
	// which explains the lower FP32 AVF (§V-B).
	if float64(FFCountFP32)/float64(FFCountINT) < 2.5 {
		t.Error("FP32 must be roughly 3x the INT unit")
	}
	if FFCountPipe < FFCountSched {
		t.Error("pipeline registers must dominate")
	}
}

func TestStateGetSetRoundTrip(t *testing.T) {
	lay := newSchedLayout()
	s := NewState(lay)
	pc0 := lay.MustField("w0_pc")
	mask5 := lay.MustField("w5_ibuf")
	phase := lay.MustField("phase")
	s.Set(pc0, 0xBEEF)
	s.Set(mask5, 0x12345678)
	s.Set(phase, 0xF)
	if got := s.Get(pc0); got != 0xBEEF {
		t.Errorf("pc0 = %x", got)
	}
	// Truncation to the 16-bit PC field width.
	s.Set(pc0, 0xDEADBEEF)
	if got := s.Get(pc0); got != 0xBEEF {
		t.Errorf("pc0 after wide write = %x, want truncated 0xBEEF", got)
	}
	if got := s.Get(mask5); got != 0x12345678 {
		t.Errorf("ibuf5 = %x", got)
	}
	if got := s.Get(phase); got != 0xF {
		t.Errorf("phase = %x", got)
	}
	// Truncation to field width.
	s.Set(phase, 0x1F)
	if got := s.Get(phase); got != 0xF {
		t.Errorf("phase truncation failed: %x", got)
	}
}

func TestStateFieldsSpanningWords(t *testing.T) {
	// Construct a layout whose second field straddles a 64-bit boundary.
	lay := NewLayout("straddle", []Field{
		{Name: "a", Width: 40},
		{Name: "b", Width: 48}, // bits 40..87
		{Name: "c", Width: 64}, // bits 88..151
	})
	s := NewState(lay)
	b := lay.MustField("b")
	c := lay.MustField("c")
	s.Set(b, 0xABCDEF012345)
	s.Set(c, 0xFEDCBA9876543210)
	if got := s.Get(b); got != 0xABCDEF012345 {
		t.Errorf("straddling field = %x", got)
	}
	if got := s.Get(c); got != 0xFEDCBA9876543210 {
		t.Errorf("64-bit straddling field = %x", got)
	}
	if got := s.Get(lay.MustField("a")); got != 0 {
		t.Errorf("neighbour overwritten: %x", got)
	}
}

func TestFlipBit(t *testing.T) {
	lay := newINTLayout()
	s := NewState(lay)
	f := lay.MustField("l3_s2_prod")
	s.Set(f, 0)
	bit := lay.Fields[f].Offset + 7
	s.FlipBit(bit)
	if got := s.Get(f); got != 1<<7 {
		t.Errorf("after flip, field = %x", got)
	}
	if s.Bit(bit) != 1 {
		t.Error("Bit readback failed")
	}
	s.FlipBit(bit)
	if s.PopCount() != 0 {
		t.Error("double flip must restore state")
	}
}

func TestFieldAt(t *testing.T) {
	lay := newSFUCtlLayout()
	f := lay.FieldAt(lay.MustFieldOffset("grant1"))
	if f.Name != "grant1" {
		t.Errorf("FieldAt = %s", f.Name)
	}
}

// MustFieldOffset is a test helper.
func (l *Layout) MustFieldOffset(name string) int {
	return l.Fields[l.MustField(name)].Offset
}

func TestAllModuleLayoutsHaveUniqueFieldNames(t *testing.T) {
	// NewLayout panics on duplicates; constructing all layouts is the test.
	for _, lay := range []*Layout{
		newFP32Layout(), newINTLayout(), newSFULayout(),
		newSFUCtlLayout(), newSchedLayout(), newPipeLayout(),
	} {
		if lay.Bits == 0 {
			t.Errorf("%s layout empty", lay.Name)
		}
	}
}

func TestCoverageShareVsRegisterFile(t *testing.T) {
	// The paper: the characterised modules cover ~84% of the FFs involved
	// in computation excluding memories. Here we simply check the total
	// characterised FF count the framework reports.
	if len(faults.AllModules()) != 6 {
		t.Fatal("module inventory changed; update layouts")
	}
	total := 0
	for _, lay := range []*Layout{
		newFP32Layout(), newINTLayout(), newSFULayout(),
		newSFUCtlLayout(), newSchedLayout(), newPipeLayout(),
	} {
		total += lay.Bits
	}
	want := FFCountFP32 + FFCountINT + FFCountSFU + FFCountSFUCtl + FFCountSched + FFCountPipe
	if total != want {
		t.Errorf("characterised FF total = %d, want %d", total, want)
	}
}

// PopCount returns the number of set flip-flops (used in tests).
func (s *State) PopCount() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// isPipeDatapathField reports whether a pipeline-register field stores
// per-lane operand or result data (as opposed to control signals) — the
// paper's ~84%/16% split (§V-B).
func isPipeDatapathField(name string) bool {
	for _, p := range []string{"cola_a", "cola_b", "cola_c", "colb_a", "colb_b", "colb_c",
		"exin_", "exout", "wb_res", "lsu_addr"} {
		if len(name) >= len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}
