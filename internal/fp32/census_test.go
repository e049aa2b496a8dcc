package fp32_test

import (
	"math/bits"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/emu"
	"gpufi/internal/fp32"
	"gpufi/internal/isa"
)

// TestFmaFallbackShareOnPaperApps: over every FFMA the six paper
// applications execute in their golden runs, FmaBits hands at most 1 % to
// the soft datapath. Structured inputs put 6 % of these on binary32
// rounding midpoints and another 1 % on a zero operand; both used to fall
// back.
func TestFmaFallbackShareOnPaperApps(t *testing.T) {
	var calls, fallbacks uint64
	for _, w := range apps.Suite() {
		var appCalls, appFallbacks uint64
		hooks := emu.Hooks{Post: func(ev *emu.Event) {
			if ev.Instr.Op != isa.OpFFMA {
				return
			}
			for m := ev.Active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m)
				appCalls++
				if fp32.FmaFallsBack(ev.SrcA(lane), ev.SrcB(lane), ev.SrcC(lane)) {
					appFallbacks++
				}
			}
		}}
		if _, err := w.Execute(hooks); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		t.Logf("%-10s %8d FFMA, %6d on the datapath", w.Name, appCalls, appFallbacks)
		calls, fallbacks = calls+appCalls, fallbacks+appFallbacks
	}
	if calls == 0 {
		t.Fatal("the suite executed no FFMA")
	}
	if share := float64(fallbacks) / float64(calls); share > 0.01 {
		t.Errorf("%d of %d FFMAs (%.2f %%) fall back to the datapath, want <= 1 %%", fallbacks, calls, 100*share)
	}
}
