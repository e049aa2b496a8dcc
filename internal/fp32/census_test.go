package fp32_test

import (
	"math/bits"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/emu"
	"gpufi/internal/fp32"
	"gpufi/internal/isa"
	"gpufi/internal/replay"
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
		regs := &shadowRegs{}
		regs.Hooks.Post = func(ev *emu.Event) {
			if ev.Instr.Op == isa.OpFFMA {
				for m := ev.Active; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					appCalls++
					if fp32.FmaFallsBack(ev.SrcA(lane), ev.SrcB(lane), regs.read(ev, ev.Instr.SrcC, lane)) {
						appFallbacks++
					}
				}
			}
			regs.observe(ev)
		}
		if _, err := w.ExecuteWith(regs); err != nil {
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

// shadowRegs is a Runner that mirrors the register files of the running
// block's warps from Post events, so a hook can read an operand the Event
// does not carry. Every register write is some instruction's DstValue, and
// every launch and block starts its warps from zeroed registers.
type shadowRegs struct {
	replay.Plain
	block int
	warps map[int]*[isa.NumRegs][emu.WarpSize]uint32
}

// Launch implements replay.Runner.
func (s *shadowRegs) Launch(l *emu.Launch) error {
	s.block, s.warps = 0, nil
	return s.Plain.Launch(l)
}

// read returns register r of lane as it was before ev executed.
func (s *shadowRegs) read(ev *emu.Event, r isa.Reg, lane int) uint32 {
	if r == isa.RZ || ev.Block != s.block || s.warps[ev.Warp] == nil {
		return 0
	}
	return s.warps[ev.Warp][r][lane]
}

// observe applies ev's register writes.
func (s *shadowRegs) observe(ev *emu.Event) {
	if ev.Block != s.block || s.warps == nil {
		s.block, s.warps = ev.Block, map[int]*[isa.NumRegs][emu.WarpSize]uint32{}
	}
	if !ev.Instr.Op.HasDst() || ev.Instr.Dst == isa.RZ {
		return
	}
	w := s.warps[ev.Warp]
	if w == nil {
		w = new([isa.NumRegs][emu.WarpSize]uint32)
		s.warps[ev.Warp] = w
	}
	for m := ev.Active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m)
		w[ev.Instr.Dst][lane], _ = ev.DstValue(lane)
	}
}
