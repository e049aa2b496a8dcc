// Benchmark harness: one target per table and figure of the paper's
// evaluation (§V, §VI). Each benchmark regenerates its table/series and
// prints it alongside the paper's reference values, so `go test -bench=.`
// reproduces the full experimental section at a reduced default scale.
// Set GPUFI_FULL=1 for paper-scale campaigns (12k RTL faults per campaign,
// 6k software injections per application — minutes to hours of runtime).
//
// The RTL characterisation and the software campaigns are computed once
// and shared across benchmarks; absolute ns/op figures of the Figure/Table
// benchmarks therefore measure reporting, not simulation. Simulation
// throughput is measured by the dedicated Benchmark*Throughput targets in
// the internal packages.
package gpufi

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/kasm"
	"gpufi/internal/mxm"
	"gpufi/internal/rtl"
	"gpufi/internal/rtlfi"
	"gpufi/internal/stats"
	"gpufi/internal/swfi"
	"gpufi/internal/syndrome"
)

// ---------------------------------------------------------------------------
// Scale configuration
// ---------------------------------------------------------------------------

type benchScale struct {
	rtlFaults  int
	tmxmFaults int
	hpcInj     int
	cnnInj     int
	yoloInj    int
}

func scale() benchScale {
	if os.Getenv("GPUFI_FULL") != "" {
		return benchScale{rtlFaults: 12000, tmxmFaults: 12000, hpcInj: 6000, cnnInj: 6000, yoloInj: 1500}
	}
	return benchScale{rtlFaults: 1500, tmxmFaults: 1500, hpcInj: 300, cnnInj: 300, yoloInj: 100}
}

// benchSuite is the HPC application set used by the PVF benchmarks, sized
// so default-scale campaigns finish in tens of seconds.
func benchSuite() []*Workload {
	return []*Workload{
		apps.NewMxM(64),
		apps.NewLava(2, 64),
		apps.NewQuicksort(256),
		apps.NewHotspot(16, 12),
		apps.NewLUD(32),
		apps.NewGaussian(32),
	}
}

// ---------------------------------------------------------------------------
// Shared cached stages
// ---------------------------------------------------------------------------

var (
	charOnce sync.Once
	charVal  *Characterization
	charErr  error

	hpcOnce sync.Once
	hpcVal  []*AppEvaluation
	hpcErr  error

	lenetOnce sync.Once
	lenetVal  *CNNEvaluation
	lenetErr  error

	yoloOnce sync.Once
	yoloVal  *CNNEvaluation
	yoloErr  error
)

func benchChar(b *testing.B) *Characterization {
	b.Helper()
	charOnce.Do(func() {
		s := scale()
		charVal, charErr = Characterize(CharacterizeConfig{
			FaultsPerCampaign: s.rtlFaults,
			TMXMFaults:        s.tmxmFaults,
			Seed:              2021,
		})
	})
	if charErr != nil {
		b.Fatal(charErr)
	}
	return charVal
}

func benchHPC(b *testing.B) []*AppEvaluation {
	b.Helper()
	c := benchChar(b)
	hpcOnce.Do(func() {
		hpcVal, hpcErr = EvaluateHPC(c.DB, benchSuite(), EvalConfig{
			Injections: scale().hpcInj, Seed: 7,
		})
	})
	if hpcErr != nil {
		b.Fatal(hpcErr)
	}
	return hpcVal
}

func benchLeNet(b *testing.B) *CNNEvaluation {
	b.Helper()
	c := benchChar(b)
	lenetOnce.Do(func() {
		lenetVal, lenetErr = EvaluateCNN(c.DB, "LeNetLite", cnn.NewLeNetLite(),
			cnn.LeNetInput(0), swfi.LeNetCritical,
			EvalConfig{Injections: scale().cnnInj, Seed: 13})
	})
	if lenetErr != nil {
		b.Fatal(lenetErr)
	}
	return lenetVal
}

func benchYolo(b *testing.B) *CNNEvaluation {
	b.Helper()
	c := benchChar(b)
	yoloOnce.Do(func() {
		yoloVal, yoloErr = EvaluateCNN(c.DB, "YoloLite", cnn.NewYoloLite(),
			cnn.YoloInput(0), swfi.YoloCritical,
			EvalConfig{Injections: scale().yoloInj, Seed: 17})
	})
	if yoloErr != nil {
		b.Fatal(yoloErr)
	}
	return yoloVal
}

// once guards so each benchmark prints its table exactly once per process.
var printed sync.Map

func printOnce(key string, f func()) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		f()
	}
}

// ---------------------------------------------------------------------------
// Fig. 3 — application instruction profiles
// ---------------------------------------------------------------------------

func BenchmarkFig3_InstructionProfile(b *testing.B) {
	type row struct {
		name   string
		counts swfi.Counts
	}
	var rows []row
	for _, w := range benchSuite() {
		counts, err := swfi.Profile(w)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, row{w.Name, counts})
	}
	for _, net := range []struct {
		name  string
		nw    *cnn.Network
		input []float32
	}{
		{"LeNetLite", cnn.NewLeNetLite(), cnn.LeNetInput(0)},
		{"YoloLite", cnn.NewYoloLite(), cnn.YoloInput(0)},
	} {
		counts, err := swfi.ProfileCNN(net.nw, net.input)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, row{net.name, counts})
	}
	printOnce("fig3", func() {
		fmt.Println("\n=== Fig. 3: application instruction profiles (shares of executed instructions) ===")
		fmt.Println("paper: the 12 characterised opcodes cover >70% of executed instructions in common GPU codes")
		for _, r := range rows {
			sh := r.counts.CategoryShares()
			characterised := 1 - sh[isa.CatOther]
			fmt.Printf("  %-10s FP32=%5.1f%% INT32=%5.1f%% SFU=%5.1f%% Control=%5.1f%% Others=%5.1f%%  (characterised %.0f%%)\n",
				r.name, 100*sh[isa.CatFP32], 100*sh[isa.CatINT32], 100*sh[isa.CatSFU],
				100*sh[isa.CatControl], 100*sh[isa.CatOther], 100*characterised)
		}
	})
	b.ReportMetric(float64(len(rows)), "apps")
	for i := 0; i < b.N; i++ {
		_ = rows
	}
}

// ---------------------------------------------------------------------------
// Table I — module inventory
// ---------------------------------------------------------------------------

func BenchmarkTable1_ModuleSizes(b *testing.B) {
	printOnce("table1", func() {
		fmt.Println("\n=== Table I: evaluated modules, sizes and instructions (paper values matched by construction) ===")
		rows := []struct {
			mod   faults.Module
			typ   string
			instr string
		}{
			{faults.ModFP32, "Execution/Data", "FADD, FMUL, FFMA"},
			{faults.ModINT, "Execution/Data", "IADD, IMUL, IMAD"},
			{faults.ModSFU, "Execution/Data", "FSIN, FEXP"},
			{faults.ModSFUCtl, "Control", "FSIN, FEXP"},
			{faults.ModSched, "Control", "ALL"},
			{faults.ModPipe, "Control/Data", "ALL"},
		}
		for _, r := range rows {
			fmt.Printf("  %-22s %6d FFs  %-15s %s\n", r.mod, rtl.ModuleBits(r.mod), r.typ, r.instr)
		}
	})
	for i := 0; i < b.N; i++ {
		_ = rtl.ModuleBits(faults.ModPipe)
	}
}

// ---------------------------------------------------------------------------
// Fig. 4 — micro-benchmark AVF per module and instruction
// ---------------------------------------------------------------------------

func BenchmarkFig4_MicrobenchAVF(b *testing.B) {
	c := benchChar(b)
	printOnce("fig4", func() {
		fmt.Println("\n=== Fig. 4: AVF of RTL injections per module and instruction (avg over S/M/L) ===")
		fmt.Println("paper shapes: FU SDCs >> FU DUEs; INT AVF > FP32 AVF (area dilution); pipeline DUE-heavy;")
		fmt.Println("              scheduler AVF low with mostly multi-thread SDCs")
		rows := c.AVFTable()
		last := faults.Module(255)
		for _, r := range rows {
			if r.Module != last {
				fmt.Printf("  --- %s ---\n", r.Module)
				last = r.Module
			}
			fmt.Printf("    %-5s SDC-single=%6.3f%% SDC-multi=%6.3f%% DUE=%6.3f%% (avg corrupted threads %.1f)\n",
				r.Op, 100*r.SDCSingle, 100*r.SDCMulti, 100*r.DUE, r.AvgThreads)
		}
	})
	var sim, skipped uint64
	for _, res := range c.Micro {
		sim += res.SimCycles
		skipped += res.SkippedCycles
	}
	b.ReportMetric(replaySpeedup(sim, skipped), "ff-speedup")
	for i := 0; i < b.N; i++ {
		_ = c.AVFTable()
	}
}

// replaySpeedup is the effective simulation speedup of the checkpoint
// fast-forward: cycles a full replay would have simulated over cycles
// actually simulated.
func replaySpeedup(sim, skipped uint64) float64 {
	if sim == 0 {
		return 1
	}
	return float64(sim+skipped) / float64(sim)
}

// ---------------------------------------------------------------------------
// Figs. 5 and 6 — fault syndrome distributions
// ---------------------------------------------------------------------------

func printSyndromeFig(key, title string, ops []isa.Opcode, db *syndrome.DB) {
	printOnce(key, func() {
		fmt.Printf("\n=== %s ===\n", title)
		fmt.Println("paper shape: non-Gaussian, narrow, power-law distributions with a clear input/site-dependent peak")
		for _, op := range ops {
			for _, mod := range faults.AllModules() {
				for _, rng := range faults.AllRanges() {
					e, ok := db.Lookup(op, rng, mod)
					if !ok || e.Hist == nil || e.Hist.N == 0 {
						continue
					}
					fmt.Printf("  %-4s/%s/%-9s n=%4d mode=%-6s inf-share=%.2f  %s\n",
						op, rng, mod, int(e.Hist.N), e.Hist.Mode(), e.InfShare, e.Hist)
				}
			}
		}
	})
}

func BenchmarkFig5_FPSyndromes(b *testing.B) {
	c := benchChar(b)
	printSyndromeFig("fig5",
		"Fig. 5: relative-error syndrome distributions, floating-point instructions",
		[]isa.Opcode{isa.OpFADD, isa.OpFMUL, isa.OpFFMA}, c.DB)
	for i := 0; i < b.N; i++ {
		_ = c.DB
	}
}

func BenchmarkFig6_IntSyndromes(b *testing.B) {
	c := benchChar(b)
	printSyndromeFig("fig6",
		"Fig. 6: relative-error syndrome distributions, integer instructions",
		[]isa.Opcode{isa.OpIADD, isa.OpIMUL, isa.OpIMAD}, c.DB)
	for i := 0; i < b.N; i++ {
		_ = c.DB
	}
}

// ---------------------------------------------------------------------------
// §V-B — corrupted-thread multiplicity
// ---------------------------------------------------------------------------

func BenchmarkSec5B_Multiplicity(b *testing.B) {
	c := benchChar(b)
	printOnce("sec5b", func() {
		fmt.Println("\n=== §V-B: average corrupted threads per warp, by injected module ===")
		fmt.Println("paper: 1 (INT/FP32 FUs), 8 (SFU), 28 (scheduler), 18 (pipeline); >60% multi-thread scheduler SDCs")
		agg := map[faults.Module]*faults.Tally{}
		for _, res := range c.Micro {
			if agg[res.Spec.Module] == nil {
				agg[res.Spec.Module] = &faults.Tally{}
			}
			agg[res.Spec.Module].Merge(res.Tally)
		}
		for _, mod := range faults.AllModules() {
			t, ok := agg[mod]
			if !ok || t.SDCs() == 0 {
				continue
			}
			fmt.Printf("  %-10s avg corrupted threads %5.1f   multi-thread SDC share %5.1f%%\n",
				mod, t.AvgThreads(), 100*t.MultiShare())
		}
	})
	for i := 0; i < b.N; i++ {
		_ = c.Micro
	}
}

// ---------------------------------------------------------------------------
// §V-C — power-law fits, normality rejection, input dependence
// ---------------------------------------------------------------------------

func BenchmarkSec5C_PowerLawFit(b *testing.B) {
	c := benchChar(b)
	printOnce("sec5c", func() {
		fmt.Println("\n=== §V-C: syndrome statistics ===")
		fmt.Println("paper: Shapiro-Wilk p < 0.05 everywhere (not Gaussian); power law (Eq. 1);")
		fmt.Println("       ~24 corrupted bits randomly distributed; median varies with input mainly for MUL/FMA")
		rejected, tested := 0, 0
		for _, op := range isa.CharacterizedOpcodes() {
			for _, rng := range faults.AllRanges() {
				for _, mod := range faults.AllModules() {
					e, ok := c.DB.Lookup(op, rng, mod)
					if !ok || len(e.Samples) < 20 {
						continue
					}
					if _, p, err := stats.ShapiroWilk(e.Samples); err == nil {
						tested++
						if p < 0.05 {
							rejected++
						}
					}
				}
			}
		}
		fmt.Printf("  Shapiro-Wilk: normality rejected for %d/%d pools (p < 0.05)\n", rejected, tested)
		for _, op := range []isa.Opcode{isa.OpFADD, isa.OpFMUL, isa.OpFFMA, isa.OpIADD, isa.OpIMUL, isa.OpIMAD} {
			var medians [3]float64
			var bitsAvg float64
			var n int
			for ri, rng := range faults.AllRanges() {
				if e, ok := c.DB.Lookup(op, rng, unitModule(op)); ok {
					medians[ri] = e.Median
					bitsAvg += e.AvgBits
					n++
				}
			}
			if n == 0 {
				continue
			}
			fit := "n/a"
			if e, ok := c.DB.Lookup(op, faults.RangeMedium, unitModule(op)); ok && e.Fit != nil {
				fit = fmt.Sprintf("alpha=%.2f xmin=%.2g KS=%.3f", e.Fit.Alpha, e.Fit.Xmin, e.Fit.KS)
			}
			fmt.Printf("  %-5s median(S/M/L)=%.3g/%.3g/%.3g  avg corrupted bits %.1f  powerlaw{%s}\n",
				op, medians[0], medians[1], medians[2], bitsAvg/float64(n), fit)
		}
	})
	for i := 0; i < b.N; i++ {
		_ = c.DB
	}
}

func unitModule(op isa.Opcode) faults.Module {
	switch op.Unit() {
	case isa.UnitINT:
		return faults.ModINT
	case isa.UnitSFU:
		return faults.ModSFU
	default:
		return faults.ModFP32
	}
}

// ---------------------------------------------------------------------------
// Fig. 7 — t-MxM AVF
// ---------------------------------------------------------------------------

func BenchmarkFig7_TMxMAVF(b *testing.B) {
	c := benchChar(b)
	printOnce("fig7", func() {
		fmt.Println("\n=== Fig. 7: t-MxM AVF (scheduler and pipeline) per tile input ===")
		fmt.Println("paper shapes: scheduler AVF rises above pipeline for t-MxM; >=70%/50% multi-element SDC share;")
		fmt.Println("              pipeline SDC AVF lowest for the Zero tile (downstream masking)")
		for _, res := range c.TMXM {
			t := res.Tally
			fmt.Printf("  %-10s %-6s SDC-single=%6.3f%% SDC-multi=%6.3f%% DUE=%6.3f%% (multi share %4.1f%%)\n",
				res.Spec.Module, res.Spec.Kind,
				100*float64(t.SDCSingle)/float64(t.Injections),
				100*float64(t.SDCMulti)/float64(t.Injections),
				100*t.AVFDUE(), 100*t.MultiShare())
		}
	})
	var sim, skipped uint64
	for _, res := range c.TMXM {
		sim += res.SimCycles
		skipped += res.SkippedCycles
	}
	b.ReportMetric(replaySpeedup(sim, skipped), "ff-speedup")
	for i := 0; i < b.N; i++ {
		_ = c.TMXM
	}
}

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

// ---------------------------------------------------------------------------
// Table II / Fig. 8 — t-MxM spatial corruption patterns
// ---------------------------------------------------------------------------

func BenchmarkTable2_TMxMPatterns(b *testing.B) {
	c := benchChar(b)
	printOnce("table2", func() {
		fmt.Println("\n=== Table II: multi-element pattern distribution at the t-MxM output ===")
		fmt.Println("paper:  site       row    col   row+col block  rand   all")
		fmt.Println("        scheduler  0.96%  0.07%  0.45%  5.77%  0.69%  54.6%   (rest: other multi)")
		fmt.Println("        pipeline   45.4%  1.36%  1.04%  7.29%  0.42%  4.17%")
		agg := map[faults.Module]*[faults.NumPatterns]int{}
		for _, res := range c.TMXM {
			if agg[res.Spec.Module] == nil {
				agg[res.Spec.Module] = &[faults.NumPatterns]int{}
			}
			for p, n := range res.Patterns {
				agg[res.Spec.Module][p] += n
			}
		}
		for _, mod := range []faults.Module{faults.ModSched, faults.ModPipe} {
			pats, ok := agg[mod]
			if !ok {
				continue
			}
			multi := 0
			for p, n := range pats {
				if faults.Pattern(p) != faults.PatSingle {
					multi += n
				}
			}
			fmt.Printf("  measured %-10s", mod)
			for p := faults.PatRow; p < faults.NumPatterns; p++ {
				share := 0.0
				if multi > 0 {
					share = float64(pats[p]) / float64(multi)
				}
				fmt.Printf(" %s=%.1f%%", p, 100*share)
			}
			fmt.Printf("  (multi SDCs: %d)\n", multi)
		}
	})
	for i := 0; i < b.N; i++ {
		_ = c.TMXM
	}
}

// ---------------------------------------------------------------------------
// Fig. 9 — per-pattern relative-error spread
// ---------------------------------------------------------------------------

func BenchmarkFig9_PatternErrorSpread(b *testing.B) {
	c := benchChar(b)
	printOnce("fig9", func() {
		fmt.Println("\n=== Fig. 9: relative-error spread across corrupted elements (row and block patterns) ===")
		fmt.Println("paper shape: the per-element relative error varies within one corruption event (power-law range)")
		for _, res := range c.TMXM {
			for _, pat := range []faults.Pattern{faults.PatRow, faults.PatBlock} {
				errs := res.PatternErrs[pat]
				if len(errs) < 4 {
					continue
				}
				s := stats.Summarize(errs)
				fmt.Printf("  %-10s %-6s %-5s n=%4d median=%.3g p10=%.3g p90=%.3g var=%.3g\n",
					res.Spec.Module, res.Spec.Kind, pat, s.N, s.Median, s.P10, s.P90, s.Var)
			}
		}
	})
	for i := 0; i < b.N; i++ {
		_ = c.TMXM
	}
}

// ---------------------------------------------------------------------------
// Fig. 10 / Table III — application PVF under both fault models
// ---------------------------------------------------------------------------

// paperPVF holds Table III's reference values (single bit-flip, relative
// error).
var paperPVF = map[string][2]float64{
	"MxM":       {1.0, 1.0},
	"Lava":      {0.69, 0.91},
	"Quicksort": {0.94, 0.95},
	"Hotspot":   {0.25, 0.37},
	"LUD":       {0.82, 0.99},
	"Gaussian":  {0.95, 0.99},
	"LeNetLite": {0.03, 0.04},
	"YoloLite":  {0.17, 0.27},
}

func BenchmarkTable3_PVF(b *testing.B) {
	evals := benchHPC(b)
	lenet := benchLeNet(b)
	yolo := benchYolo(b)
	printOnce("table3", func() {
		fmt.Println("\n=== Table III / Fig. 10: SDC PVF per application, single bit-flip vs RTL relative-error syndrome ===")
		fmt.Printf("  %-10s %-12s %-20s %23s %23s\n", "app", "size", "domain", "bit-flip PVF (paper)", "syndrome PVF (paper)")
		for _, e := range evals {
			ref := paperPVF[e.Name]
			fmt.Printf("  %-10s %-12s %-20s %8.2f (%4.2f)%9s %8.2f (%4.2f)\n",
				e.Name, e.Size, e.Domain, e.BitFlip.PVF(), ref[0], "", e.Syndrome.PVF(), ref[1])
		}
		for _, c := range []struct {
			name string
			ev   *CNNEvaluation
		}{{"LeNetLite", lenet}, {"YoloLite", yolo}} {
			ref := paperPVF[c.name]
			fmt.Printf("  %-10s %-12s %-20s %8.2f (%4.2f)%9s %8.2f (%4.2f)\n",
				c.name, "synthetic", "CNN", c.ev.BitFlip.PVF(), ref[0], "", c.ev.Syndrome.PVF(), ref[1])
		}
	})
	for i := 0; i < b.N; i++ {
		_ = evals
	}
}

func BenchmarkFig10_PVF(b *testing.B) {
	evals := benchHPC(b)
	printOnce("fig10", func() {
		fmt.Println("\n=== Fig. 10: PVF series and bit-flip underestimation ===")
		fmt.Println("paper: single bit-flip underestimates the syndrome PVF by up to 48% (18% on average)")
		var sumUnder, maxUnder float64
		for _, e := range evals {
			u := e.Underestimation()
			sumUnder += u
			if u > maxUnder {
				maxUnder = u
			}
			fmt.Printf("  %-10s bitflip=%.3f syndrome=%.3f underestimation=%5.1f%%\n",
				e.Name, e.BitFlip.PVF(), e.Syndrome.PVF(), 100*u)
		}
		fmt.Printf("  underestimation: max %.0f%%, mean %.0f%%\n",
			100*maxUnder, 100*sumUnder/float64(len(evals)))
	})
	for i := 0; i < b.N; i++ {
		_ = evals
	}
}

// ---------------------------------------------------------------------------
// §VI — CNN criticality and t-MxM injection
// ---------------------------------------------------------------------------

func BenchmarkSec6_CNNCritical(b *testing.B) {
	lenet := benchLeNet(b)
	yolo := benchYolo(b)
	printOnce("sec6cnn", func() {
		fmt.Println("\n=== §VI: CNN fault models and critical SDCs ===")
		fmt.Println("paper: LeNET t-MxM PVF ~12x the relative-error PVF; critical SDCs 20% (LeNET) / 15% (YOLO)")
		fmt.Println("       under t-MxM; single-thread models cause (almost) no misclassifications")
		for _, c := range []struct {
			name string
			ev   *CNNEvaluation
		}{{"LeNetLite", lenet}, {"YoloLite", yolo}} {
			ratio := 0.0
			if c.ev.Syndrome.PVF() > 0 {
				ratio = c.ev.Tile.PVF() / c.ev.Syndrome.PVF()
			}
			fmt.Printf("  %-10s PVF: bitflip=%.3f syndrome=%.3f tile=%.3f (tile/syndrome %.1fx)\n",
				c.name, c.ev.BitFlip.PVF(), c.ev.Syndrome.PVF(), c.ev.Tile.PVF(), ratio)
			fmt.Printf("             critical SDC share: bitflip=%4.1f%% syndrome=%4.1f%% tile=%4.1f%%\n",
				100*c.ev.BitFlip.CriticalShare(), 100*c.ev.Syndrome.CriticalShare(),
				100*c.ev.Tile.CriticalShare())
		}
	})
	for i := 0; i < b.N; i++ {
		_ = lenet
	}
}

// ---------------------------------------------------------------------------
// §VI — time savings of the two-level framework
// ---------------------------------------------------------------------------

func BenchmarkSec6_TimeSavings(b *testing.B) {
	cm, err := MeasureCost(apps.NewMxM(64))
	if err != nil {
		b.Fatal(err)
	}
	// Measure the campaign engine's replay speedup (checkpoint fast-forward
	// plus dead-site pruning) on a small FU campaign to credit the RTL side
	// of the comparison with its realistic per-injection cost.
	eng, err := rtlfi.RunMicro(rtlfi.Spec{
		Op: isa.OpFFMA, Range: faults.RangeMedium, Module: faults.ModFP32,
		NumFaults: 200, Seed: 98,
	})
	if err != nil {
		b.Fatal(err)
	}
	printOnce("sec6time", func() {
		fmt.Println("\n=== §VI: RTL vs two-level injection cost ===")
		fmt.Println("paper: one RTL injection into one application > 10 hours on a 12-CPU server;")
		fmt.Println("       48,000 injections would take ~54 years vs ~350 GPU-hours with the framework")
		fmt.Printf("  measured: %s\n", cm.Compare(48000))
		fmt.Printf("  measured: %s\n", cm.CompareWith(48000, eng.ReplaySpeedup()))
	})
	for i := 0; i < b.N; i++ {
		_ = cm.RTLAppInjectionSeconds()
	}
}

// ---------------------------------------------------------------------------
// Ablations called out in DESIGN.md §6
// ---------------------------------------------------------------------------

// BenchmarkAblation_SamplerMode compares PVF under the fitted power-law
// sampler (Eq. 1) and the empirical reservoir sampler.
func BenchmarkAblation_SamplerMode(b *testing.B) {
	c := benchChar(b)
	w := apps.NewMxM(64)
	inj := scale().hpcInj / 2
	if inj < 50 {
		inj = 50
	}
	pl, err := RunCampaign(Campaign{Workload: w, Model: ModelSyndrome, DB: c.DB, Injections: inj, Seed: 61})
	if err != nil {
		b.Fatal(err)
	}
	emp, err := RunCampaign(Campaign{Workload: w, Model: ModelSyndromeEmp, DB: c.DB, Injections: inj, Seed: 62})
	if err != nil {
		b.Fatal(err)
	}
	printOnce("ablation_sampler", func() {
		fmt.Println("\n=== Ablation: Eq. 1 power-law sampler vs empirical reservoir sampler ===")
		fmt.Printf("  MxM PVF: powerlaw=%.3f empirical=%.3f (should agree closely)\n", pl.PVF(), emp.PVF())
	})
	for i := 0; i < b.N; i++ {
		_ = pl
	}
}

// BenchmarkAblation_DoubleBitFlip contrasts the double-bit-flip model, the
// other naive baseline NVBitFI offers.
func BenchmarkAblation_DoubleBitFlip(b *testing.B) {
	w := apps.NewHotspot(16, 12)
	inj := scale().hpcInj
	single, err := RunCampaign(Campaign{Workload: w, Model: ModelBitFlip, Injections: inj, Seed: 63})
	if err != nil {
		b.Fatal(err)
	}
	double, err := RunCampaign(Campaign{Workload: w, Model: ModelDoubleBitFlip, Injections: inj, Seed: 64})
	if err != nil {
		b.Fatal(err)
	}
	printOnce("ablation_double", func() {
		fmt.Println("\n=== Ablation: single vs double bit-flip on Hotspot ===")
		fmt.Printf("  PVF: single=%.3f double=%.3f\n", single.PVF(), double.PVF())
	})
	for i := 0; i < b.N; i++ {
		_ = single
	}
}

// BenchmarkAblation_TileKinds shows the Max/Zero/Random tile dependence of
// the t-MxM characterisation (the §V-D masking argument).
func BenchmarkAblation_TileKinds(b *testing.B) {
	c := benchChar(b)
	printOnce("ablation_tiles", func() {
		fmt.Println("\n=== Ablation: t-MxM pipeline SDC AVF by tile kind (paper: Zero tile masks most) ===")
		for _, res := range c.TMXM {
			if res.Spec.Module != faults.ModPipe {
				continue
			}
			fmt.Printf("  pipeline/%-6s SDC AVF %.3f%%\n", res.Spec.Kind, 100*res.Tally.AVFSDC())
		}
	})
	for i := 0; i < b.N; i++ {
		_ = c.TMXM
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
// Fig. 8 — example corruption-pattern geometries
// ---------------------------------------------------------------------------

// BenchmarkFig8_PatternExamples renders one sampled 8x8 corruption mask per
// observed pattern class, the pictorial content of Fig. 8.
func BenchmarkFig8_PatternExamples(b *testing.B) {
	c := benchChar(b)
	printOnce("fig8", func() {
		fmt.Println("\n=== Fig. 8: example spatial patterns of multi-element t-MxM corruptions ===")
		seen := map[faults.Pattern]bool{}
		r := stats.NewRNG(88)
		for tries := 0; tries < 4000 && len(seen) < int(faults.NumPatterns); tries++ {
			tc, ok := c.DB.SampleTile(r)
			if !ok {
				break
			}
			if seen[tc.Pattern] {
				continue
			}
			seen[tc.Pattern] = true
			fmt.Printf("  pattern %q:\n", tc.Pattern)
			for row := 0; row < mxm.Tile; row++ {
				fmt.Print("    ")
				for col := 0; col < mxm.Tile; col++ {
					if tc.Mask[row*mxm.Tile+col] {
						fmt.Print("X")
					} else {
						fmt.Print(".")
					}
				}
				fmt.Println()
			}
		}
	})
	for i := 0; i < b.N; i++ {
		_ = c.DB
	}
}

// ---------------------------------------------------------------------------
// Extensions (§VII): module-focused injection, extra SFU opcodes, FIT
// ---------------------------------------------------------------------------

// BenchmarkAblation_ModuleFocus compares the module cocktail against
// single-module syndrome sources (§VI's "focus the software fault
// injection in just one module").
func BenchmarkAblation_ModuleFocus(b *testing.B) {
	c := benchChar(b)
	w := apps.NewMxM(64)
	inj := scale().hpcInj / 2
	if inj < 50 {
		inj = 50
	}
	type row struct {
		name string
		pvf  float64
	}
	var rows []row
	cocktail, err := RunCampaign(Campaign{Workload: w, Model: ModelSyndrome, DB: c.DB, Injections: inj, Seed: 71})
	if err != nil {
		b.Fatal(err)
	}
	rows = append(rows, row{"cocktail", cocktail.PVF()})
	for _, mod := range []faults.Module{faults.ModFP32, faults.ModSched, faults.ModPipe} {
		mod := mod
		res, err := RunCampaign(Campaign{
			Workload: w, Model: ModelSyndrome, DB: c.DB,
			Injections: inj, Seed: 72 + uint64(mod), ModuleFocus: &mod,
		})
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, row{mod.String(), res.PVF()})
	}
	printOnce("ablation_focus", func() {
		fmt.Println("\n=== Ablation: syndrome source focus (MxM PVF per assumed fault origin) ===")
		for _, r := range rows {
			fmt.Printf("  %-10s PVF=%.3f\n", r.name, r.pvf)
		}
	})
	for i := 0; i < b.N; i++ {
		_ = rows
	}
}

// BenchmarkExtension_SFUReciprocal characterises FRCP/FRSQRT, the §VII
// "extended instructions evaluation" path beyond the paper's 12 opcodes.
func BenchmarkExtension_SFUReciprocal(b *testing.B) {
	var lines []string
	for _, op := range rtlfi.ExtendedOpcodes() {
		res, err := rtlfi.RunMicro(rtlfi.Spec{
			Op: op, Range: faults.RangeMedium, Module: faults.ModSFU,
			NumFaults: scale().rtlFaults, Seed: 90 + uint64(op),
		})
		if err != nil {
			b.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("  %-7s SDC AVF %.3f%%  multi share %.0f%%  avg threads %.1f",
			op, 100*res.Tally.AVFSDC(), 100*res.Tally.MultiShare(), res.Tally.AvgThreads()))
	}
	printOnce("ext_sfu", func() {
		fmt.Println("\n=== Extension (§VII): RTL characterisation of FRCP/FRSQRT ===")
		for _, l := range lines {
			fmt.Println(l)
		}
	})
	for i := 0; i < b.N; i++ {
		_ = lines
	}
}

// BenchmarkExtension_FITRanking folds a nominal raw fault rate into the
// size-weighted AVF, the evaluation the paper leaves to future work.
func BenchmarkExtension_FITRanking(b *testing.B) {
	c := benchChar(b)
	const rawFITPerBit = 1e-4 // nominal SRAM-class FIT per bit
	ests := c.EstimateFIT(rawFITPerBit)
	printOnce("ext_fit", func() {
		fmt.Println("\n=== Extension (§VII): module FIT contributions (nominal 1e-4 FIT/bit) ===")
		fmt.Println("paper expectation: FUs dominate SDC FIT (size x AVF); pipeline dominates DUE FIT")
		for _, e := range ests {
			fmt.Printf("  %-10s %6d FFs  SDC FIT %.4f  DUE FIT %.4f\n", e.Module, e.FFs, e.SDCFIT, e.DUEFIT)
		}
	})
	for i := 0; i < b.N; i++ {
		_ = ests
	}
}

// BenchmarkAblation_SDCCriterion compares the exact (bitwise) golden
// comparison against tolerance-based comparisons (DESIGN.md §6): looser
// criteria absorb the low-magnitude corruptions that dominate the
// bit-flip model, widening the gap to the syndrome model.
func BenchmarkAblation_SDCCriterion(b *testing.B) {
	c := benchChar(b)
	w := apps.NewMxM(64)
	inj := scale().hpcInj
	type row struct {
		tol       float64
		flip, syn float64
	}
	var rows []row
	for _, tol := range []float64{0, 1e-6, 1e-3} {
		flip, err := RunCampaign(Campaign{Workload: w, Model: ModelBitFlip, Injections: inj, Seed: 81, Tolerance: tol})
		if err != nil {
			b.Fatal(err)
		}
		syn, err := RunCampaign(Campaign{Workload: w, Model: ModelSyndrome, DB: c.DB, Injections: inj, Seed: 82, Tolerance: tol})
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, row{tol, flip.PVF(), syn.PVF()})
	}
	printOnce("ablation_tol", func() {
		fmt.Println("\n=== Ablation: SDC criterion (MxM PVF, bitwise vs tolerance compare) ===")
		for _, r := range rows {
			fmt.Printf("  tol=%-6g bitflip=%.3f syndrome=%.3f (gap %+.3f)\n", r.tol, r.flip, r.syn, r.syn-r.flip)
		}
	})
	for i := 0; i < b.N; i++ {
		_ = rows
	}
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
