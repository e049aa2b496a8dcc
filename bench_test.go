// Timing microbenchmarks of the two machines: RTL machine construction
// and a hung faulty run, the RTL-vs-emulator speed gap on one kernel, and
// the emulator's interpreter on its best and worst cases. The paper's
// tables and figures are regenerated by `gpufi experiments`.
package gpufi

import (
	"testing"

	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/mxm"
	"gpufi/internal/rtl"
	"gpufi/internal/rtlfi"
	"gpufi/internal/stats"
)

// BenchmarkRTL_New measures machine construction: campaigns build one per
// worker, per march engine and per pooled lane, so it must stay an
// allocation of state words on the shared model, not a model build.
func BenchmarkRTL_New(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchMachine = rtl.New()
	}
}

var benchMachine *rtl.Machine

// BenchmarkRTL_WedgedRun measures one hung faulty run end to end: a flip
// of warp 0's state field wedges the scheduler of the FADD micro-benchmark
// at cycle 10, and the run ends as a watchdog DUE at the campaign budget
// (10x golden + 1000 cycles) — of which only the prefix up to the first
// stall cycle is stepped.
func BenchmarkRTL_WedgedRun(b *testing.B) {
	prog, err := rtlfi.BuildMicro(isa.OpFADD)
	if err != nil {
		b.Fatal(err)
	}
	input := rtlfi.MicroInputs(isa.OpFADD, faults.RangeMedium, stats.NewRNG(98))
	m := rtl.New()
	if err := m.Run(prog, 1, rtlfi.MicroThreads, append([]uint32(nil), input...), 0, 1_000_000); err != nil {
		b.Fatal(err)
	}
	budget := m.Cycles()*10 + 1000
	lay := m.Sched.Lay
	fault := rtl.Fault{Module: faults.ModSched, Bit: lay.Fields[lay.MustField("w0_state")].Offset + 2, Cycle: 10}
	g := make([]uint32, len(input))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(g, input)
		m.Inject(fault)
		if err := m.Run(prog, 1, rtlfi.MicroThreads, g, 0, budget); err != rtl.ErrWatchdog {
			b.Fatalf("run ended with %v, want the watchdog", err)
		}
		if i == 0 {
			b.ReportMetric(float64(m.Cycles()-m.SkippedCycles()), "stepped-cycles")
			b.ReportMetric(float64(m.Cycles()), "cycles")
		}
	}
}

// BenchmarkThroughput_RTLvsEmulator reports the raw simulation speed gap
// that motivates the two-level framework.
func BenchmarkThroughput_RTLvsEmulator(b *testing.B) {
	prog, err := mxm.Build(mxm.Tile)
	if err != nil {
		b.Fatal(err)
	}
	a, bb := mxm.TileInputs(mxm.TileRandom, 1)
	b.Run("RTL", func(b *testing.B) {
		m := rtl.New()
		for i := 0; i < b.N; i++ {
			g := mxm.Pack(a, bb, mxm.Tile)
			if err := m.Run(prog, 1, mxm.BlockThreads, g, mxm.SharedWords, 10_000_000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Emulator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := mxm.Pack(a, bb, mxm.Tile)
			if _, err := emu.Run(&emu.Launch{
				Prog: prog, Grid: 1, Block: mxm.BlockThreads,
				Global: g, SharedWords: mxm.SharedWords,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Emulator interpreter microbenchmarks
// ---------------------------------------------------------------------------

// emuBenchLoop runs launches from mk and reports emu-mips: millions of
// thread-level instructions interpreted per wall-clock second.
func emuBenchLoop(b *testing.B, mk func() *emu.Launch) {
	b.Helper()
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := emu.Run(mk())
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.DynThreadInstrs
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(instrs)*float64(b.N)/sec/1e6, "emu-mips")
	}
}

// emuDenseFFMAProg is the fast path's best case: every lane of every warp
// stays active, so the interpreter takes the dense full-mask row loops
// for the whole run. ~1.4M thread-instructions per launch.
func emuDenseFFMAProg(b *testing.B) *kasm.Program {
	b.Helper()
	tid, acc, x, y, cnt := isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5)
	bb := kasm.New("bench-dense-ffma")
	bb.S2R(tid, isa.SRTid)
	bb.I2F(x, tid)
	bb.MovF(y, 1.0000001)
	bb.MovF(acc, 0)
	bb.MovI(cnt, 256)
	bb.Loop(func() {
		for i := 0; i < 8; i++ {
			bb.FFma(acc, x, y, acc)
		}
		bb.IAddI(cnt, cnt, -1)
	}, func() isa.Pred {
		bb.ISetPI(isa.P(1), isa.CmpGT, cnt, 0)
		return isa.P(1)
	})
	bb.Gst(tid, 0, acc)
	prog, err := bb.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// emuDivergentProg is the fast path's worst case: per-lane trip counts
// plus a parity-predicated region keep the active mask sparse, so nearly
// every warp instruction goes through the guarded per-lane loops and the
// reconvergence stack churns continuously.
func emuDivergentProg(b *testing.B) *kasm.Program {
	b.Helper()
	tid, acc, x, par, cnt := isa.Reg(1), isa.Reg(2), isa.Reg(3), isa.Reg(4), isa.Reg(5)
	bb := kasm.New("bench-divergent")
	bb.S2R(tid, isa.SRTid)
	bb.I2F(x, tid)
	bb.MovF(acc, 0)
	bb.AndI(cnt, tid, 63)
	bb.IAddI(cnt, cnt, 1) // 1..64 iterations, unique per lane group
	bb.AndI(par, tid, 1)
	bb.ISetPI(isa.P(2), isa.CmpNE, par, 0)
	bb.Loop(func() {
		bb.FFma(acc, x, x, acc)
		bb.If(isa.P(2), func() {
			bb.FMul(acc, acc, x)
			bb.FAdd(acc, acc, x)
		})
		bb.IAddI(cnt, cnt, -1)
	}, func() isa.Pred {
		bb.ISetPI(isa.P(1), isa.CmpGT, cnt, 0)
		return isa.P(1)
	})
	bb.Gst(tid, 0, acc)
	prog, err := bb.Finalize()
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func BenchmarkEmu_DenseFFMA(b *testing.B) {
	prog := emuDenseFFMAProg(b)
	b.Run("Fast", func(b *testing.B) {
		emuBenchLoop(b, func() *emu.Launch {
			return &emu.Launch{Prog: prog, Grid: 2, Block: 256, Global: make([]uint32, 512)}
		})
	})
}

func BenchmarkEmu_Divergent(b *testing.B) {
	prog := emuDivergentProg(b)
	b.Run("Fast", func(b *testing.B) {
		emuBenchLoop(b, func() *emu.Launch {
			return &emu.Launch{Prog: prog, Grid: 2, Block: 256, Global: make([]uint32, 512)}
		})
	})
}

// BenchmarkEmu_Hooks prices per-instruction event capture: the same dense
// kernel with no hooks, and with an armed Post observation hook, which
// the same interpreter serves by copying the operand and result rows into
// the Event and calling the hook once per warp instruction.
func BenchmarkEmu_Hooks(b *testing.B) {
	prog := emuDenseFFMAProg(b)
	cases := []struct {
		name string
		mk   func() *emu.Launch
	}{
		{"Unhooked", func() *emu.Launch {
			return &emu.Launch{Prog: prog, Grid: 2, Block: 256, Global: make([]uint32, 512)}
		}},
		{"PostHook", func() *emu.Launch {
			n := uint64(0)
			return &emu.Launch{
				Prog: prog, Grid: 2, Block: 256, Global: make([]uint32, 512),
				Hooks: emu.Hooks{Post: func(ev *emu.Event) { n += uint64(ev.ActiveCount()) }},
			}
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) { emuBenchLoop(b, tc.mk) })
	}
}
