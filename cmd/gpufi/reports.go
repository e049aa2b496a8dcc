package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"gpufi"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/rtl"
	"gpufi/internal/rtlfi"
	"gpufi/internal/stats"
	"gpufi/internal/swfi"
	"gpufi/internal/syndrome"
)

// stopped is what an interrupted experiments run reports.
const stopped = "interrupted; campaigns are deterministic, re-run to reproduce"

// cnns are the evaluation networks by their flag spellings, in the
// paper's order.
var cnns = []string{"LeNet", "Yolo"}

// runExperiments regenerates the paper's evaluation: every table and
// figure of §V and §VI in paper order, then the ablations and the §VII
// extensions, each section with the paper's reference beside the
// measurement. The RTL campaigns use -seed, the HPC suite -seed+1, LeNet
// -seed+2 and Yolo -seed+3. Paper scale is -rtl 12000 -tmxm 12000
// -hpc 6000 -cnn 6000 -yolo 1500.
func runExperiments(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, lg := command("experiments", stderr)
	var (
		rtlFaults = fs.Int("rtl", 2000, "RTL faults per campaign")
		tmxm      = fs.Int("tmxm", 2000, "t-MxM faults per campaign")
		hpcInj    = fs.Int("hpc", 500, "software injections per HPC app per model")
		cnnInj    = fs.Int("cnn", 500, "software injections per CNN model (LeNet)")
		yoloInj   = fs.Int("yolo", 150, "software injections per CNN model (Yolo)")
		seed      = fs.Uint64("seed", 2021, "seed")
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	if err := fig3(stdout); err != nil {
		return err
	}
	table1(stdout)

	lg.Printf("RTL characterisation (%d faults per campaign)...", *rtlFaults)
	char, err := gpufi.CharacterizeCtx(ctx, gpufi.CharacterizeConfig{
		FaultsPerCampaign: *rtlFaults, TMXMFaults: *tmxm, Seed: *seed,
	})
	if err != nil {
		return interrupted(ctx, err, stopped)
	}
	for _, section := range []func(io.Writer, *gpufi.Characterization){fig4, fig56, sec5B, sec5C, fig7, table2, fig8, fig9} {
		section(stdout, char)
	}

	lg.Printf("software campaigns (%d injections per HPC app per model)...", *hpcInj)
	evals, err := gpufi.EvaluateHPCCtx(ctx, char.DB, gpufi.HPCSuite(), gpufi.EvalConfig{
		Injections: *hpcInj, Seed: *seed + 1,
	})
	if err != nil {
		return interrupted(ctx, err, stopped)
	}
	lg.Print("CNN campaigns...")
	var nets []*gpufi.CNNEvaluation
	for i, inj := range []int{*cnnInj, *yoloInj} {
		net, input, critical, _ := swfi.EvalNetwork(cnns[i])
		ev, err := gpufi.EvaluateCNNCtx(ctx, char.DB, net.Name, net, input, critical,
			gpufi.EvalConfig{Injections: inj, Seed: *seed + 2 + uint64(i)})
		if err != nil {
			return interrupted(ctx, err, stopped)
		}
		nets = append(nets, ev)
	}
	table3(stdout, evals, nets)
	fig10(stdout, evals)
	engineAccounting(stdout, evals, nets)
	sec6CNN(stdout, nets)
	if err := sec6Time(stdout, char, app(evals, "MxM")); err != nil {
		return err
	}

	lg.Print("ablations and extensions...")
	ablationTiles(stdout, char)
	for _, section := range []func(context.Context, io.Writer, []*gpufi.AppEvaluation) error{
		ablationSampler, ablationDoubleFlip, ablationCriterion, ablationFocus,
	} {
		if err := section(ctx, stdout, evals); err != nil {
			return interrupted(ctx, err, stopped)
		}
	}
	if err := extensionSFU(ctx, stdout, *rtlFaults, *seed); err != nil {
		return interrupted(ctx, err, stopped)
	}
	extensionFIT(stdout, char)
	return nil
}

// head starts a section: its title and the paper's reference.
func head(w io.Writer, title string, paper ...string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	for i, line := range paper {
		label := "paper:"
		if i > 0 {
			label = ""
		}
		fmt.Fprintf(w, "  %-6s %s\n", label, line)
	}
}

func fig3(w io.Writer) error {
	head(w, "Fig. 3: application instruction profiles (shares of executed instructions)",
		"the 12 characterised opcodes cover >70% of executed instructions;",
		"MxM and the CNNs are FP32-heavy, Quicksort is control-heavy")
	return profiles(w, false)
}

// moduleType is Table I's type column.
var moduleType = map[faults.Module]string{
	faults.ModFP32: "Execution/Data", faults.ModINT: "Execution/Data", faults.ModSFU: "Execution/Data",
	faults.ModSFUCtl: "Control", faults.ModSched: "Control", faults.ModPipe: "Control/Data",
}

func table1(w io.Writer) {
	head(w, "Table I: module inventory",
		"FP32 4451, INT 1542, SFU 3231, SFUctl 190, Scheduler 3358, Pipeline 10949 flip-flops")
	all := isa.CharacterizedOpcodes()
	for _, mod := range faults.AllModules() {
		var ops []string
		for _, op := range all {
			if rtlfi.ModuleUsed(mod, op) {
				ops = append(ops, op.String())
			}
		}
		instrs := strings.Join(ops, ", ")
		if len(ops) == len(all) {
			instrs = "ALL"
		}
		fmt.Fprintf(w, "  %-10s %6d flip-flops  %-15s %s\n", mod, rtl.ModuleBits(mod), moduleType[mod], instrs)
	}
}

func fig4(w io.Writer, char *gpufi.Characterization) {
	head(w, "Fig. 4: AVF per module and instruction (averaged over S/M/L)",
		"FU SDCs >> FU DUEs; INT AVF > FP32 AVF (area dilution); pipeline DUE-heavy;",
		"scheduler AVF low with mostly multi-thread SDCs")
	for _, r := range char.AVFTable() {
		fmt.Fprintf(w, "  %-10s %-5s SDC-single=%6.3f%% SDC-multi=%6.3f%% DUE=%6.3f%% (avg corrupted threads %.1f)\n",
			r.Module, r.Op, 100*r.SDCSingle, 100*r.SDCMulti, 100*r.DUE, r.AvgThreads)
	}
}

func fig56(w io.Writer, char *gpufi.Characterization) {
	head(w, "Figs. 5-6: relative-error syndrome distributions (FP and INT instructions)",
		"non-Gaussian, narrow, power-law distributions with an input- and site-dependent peak")
	for _, op := range []isa.Opcode{isa.OpFADD, isa.OpFMUL, isa.OpFFMA, isa.OpIADD, isa.OpIMUL, isa.OpIMAD} {
		for _, mod := range faults.AllModules() {
			for _, rng := range faults.AllRanges() {
				key := syndrome.Key{Op: op, Range: rng, Module: mod}
				if e := char.DB.Entries[key]; e != nil && e.Hist != nil && e.Hist.N > 0 {
					fmt.Fprintf(w, "  %-22s n=%4d mode=%-6s inf-share=%.2f  %s\n",
						key, int(e.Hist.N), e.Hist.Mode(), e.InfShare, e.Hist)
				}
			}
		}
	}
}

func sec5B(w io.Writer, char *gpufi.Characterization) {
	head(w, "§V-B: average corrupted threads per warp, by injected module",
		"1 (INT/FP32 FUs), 8 (SFU), 28 (scheduler), 18 (pipeline); >60% multi-thread scheduler SDCs")
	agg := map[faults.Module]*faults.Tally{}
	for _, res := range char.Micro {
		if agg[res.Spec.Module] == nil {
			agg[res.Spec.Module] = &faults.Tally{}
		}
		agg[res.Spec.Module].Merge(res.Tally)
	}
	for _, mod := range faults.AllModules() {
		if t := agg[mod]; t != nil && t.SDCs() > 0 {
			fmt.Fprintf(w, "  %-10s avg corrupted threads %5.1f   multi-thread SDC share %5.1f%%\n",
				mod, t.AvgThreads(), 100*t.MultiShare())
		}
	}
}

func sec5C(w io.Writer, char *gpufi.Characterization) {
	head(w, "§V-C: syndrome statistics",
		"Shapiro-Wilk p < 0.05 everywhere (not Gaussian); power law (Eq. 1); ~24 corrupted bits;",
		"the median varies with the input range, mainly for MUL/FMA (up to 30%)")
	rejected, tested := 0, 0
	for _, e := range char.DB.Entries {
		if len(e.Samples) < 20 {
			continue
		}
		if _, p, err := stats.ShapiroWilk(e.Samples); err == nil {
			tested++
			if p < 0.05 {
				rejected++
			}
		}
	}
	fmt.Fprintf(w, "  Shapiro-Wilk: normality rejected for %d/%d pools (p < 0.05)\n", rejected, tested)
	for _, op := range isa.AllOpcodes() { // the database's canonical order
		for _, mod := range faults.AllModules() {
			key := syndrome.Key{Op: op, Range: faults.RangeMedium, Module: mod}
			if e := char.DB.Entries[key]; e != nil && e.Fit != nil {
				fmt.Fprintf(w, "  %-22s alpha=%.2f xmin=%.3g KS=%.3f median=%.3g bits=%.1f\n",
					key, e.Fit.Alpha, e.Fit.Xmin, e.Fit.KS, e.Median, e.AvgBits)
			}
		}
	}
	// Input dependence: each functional unit's own syndromes per range.
	for _, mod := range []faults.Module{faults.ModFP32, faults.ModINT, faults.ModSFU} {
		for _, op := range isa.CharacterizedOpcodes() {
			if !rtlfi.ModuleUsed(mod, op) {
				continue
			}
			var medians []string
			var bits []float64
			for _, rng := range faults.AllRanges() {
				m := "-"
				if e := char.DB.Entries[syndrome.Key{Op: op, Range: rng, Module: mod}]; e != nil {
					m = fmt.Sprintf("%.3g", e.Median)
					bits = append(bits, e.AvgBits)
				}
				medians = append(medians, m)
			}
			fmt.Fprintf(w, "  %-5s on %-4s median(S/M/L)=%s  avg corrupted bits %.1f\n",
				op, mod, strings.Join(medians, "/"), stats.Summarize(bits).Mean)
		}
	}
}

func fig7(w io.Writer, char *gpufi.Characterization) {
	head(w, "Fig. 7: t-MxM AVF (scheduler and pipeline) per tile input",
		"scheduler AVF rises above pipeline for t-MxM; >=70%/50% multi-element SDC share;",
		"pipeline SDC AVF lowest for the Zero tile (downstream masking)")
	for _, res := range char.TMXM {
		t := res.Tally
		fmt.Fprintf(w, "  %-10s %-6s SDC-single=%6.3f%% SDC-multi=%6.3f%% DUE=%6.3f%% (multi share %4.1f%%)\n",
			res.Spec.Module, res.Spec.Kind,
			100*float64(t.SDCSingle)/float64(t.Injections), 100*float64(t.SDCMulti)/float64(t.Injections),
			100*t.AVFDUE(), 100*t.MultiShare())
	}
}

func table2(w io.Writer, char *gpufi.Characterization) {
	head(w, "Table II: multi-element pattern shares at the t-MxM output",
		"Scheduler  row=0.96% col=0.07% row+col=0.45% block=5.77% random=0.69% all=54.6% (rest: other multi)",
		"Pipeline   row=45.4% col=1.36% row+col=1.04% block=7.29% random=0.42% all=4.17%")
	agg := map[faults.Module]*[faults.NumPatterns]int{}
	for _, res := range char.TMXM {
		if agg[res.Spec.Module] == nil {
			agg[res.Spec.Module] = &[faults.NumPatterns]int{}
		}
		for p, n := range res.Patterns {
			agg[res.Spec.Module][p] += n
		}
	}
	for _, mod := range []faults.Module{faults.ModSched, faults.ModPipe} {
		pats := agg[mod]
		if pats == nil {
			continue
		}
		multi := 0
		for p := faults.PatRow; p < faults.NumPatterns; p++ {
			multi += pats[p]
		}
		fmt.Fprintf(w, "  %-10s", mod)
		for p := faults.PatRow; p < faults.NumPatterns; p++ {
			share := 0.0
			if multi > 0 {
				share = float64(pats[p]) / float64(multi)
			}
			fmt.Fprintf(w, " %s=%.1f%%", p, 100*share)
		}
		fmt.Fprintf(w, "  (multi SDCs: %d)\n", multi)
	}
}

func fig8(w io.Writer, char *gpufi.Characterization) {
	head(w, "Fig. 8: example spatial patterns of multi-element t-MxM corruptions (one sampled mask per class)",
		"row, column, row+col, block, random and all-element corruptions of the output tile")
	seen := map[faults.Pattern]bool{}
	r := stats.NewRNG(88)
	for tries := 0; tries < 4000 && len(seen) < int(faults.NumPatterns); tries++ {
		tc, ok := char.DB.SampleTile(r)
		if !ok {
			break
		}
		if seen[tc.Pattern] {
			continue
		}
		seen[tc.Pattern] = true
		fmt.Fprintf(w, "  pattern %q:\n", tc.Pattern)
		for row := 0; row < mxm.Tile; row++ {
			line := make([]byte, mxm.Tile)
			for col := range line {
				line[col] = '.'
				if tc.Mask[row*mxm.Tile+col] {
					line[col] = 'X'
				}
			}
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
}

func fig9(w io.Writer, char *gpufi.Characterization) {
	head(w, "Fig. 9: relative-error spread across the corrupted elements of one event (row and block patterns)",
		"the per-element relative error varies within one corruption event (power-law range)")
	for _, res := range char.TMXM {
		for _, pat := range []faults.Pattern{faults.PatRow, faults.PatBlock} {
			if errs := res.PatternErrs[pat]; len(errs) >= 4 {
				s := stats.Summarize(errs)
				fmt.Fprintf(w, "  %-10s %-6s %-5s n=%4d median=%.3g p10=%.3g p90=%.3g var=%.3g\n",
					res.Spec.Module, res.Spec.Kind, pat, s.N, s.Median, s.P10, s.P90, s.Var)
			}
		}
	}
}

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

func table3(w io.Writer, evals []*gpufi.AppEvaluation, nets []*gpufi.CNNEvaluation) {
	head(w, "Table III: SDC PVF per application, single bit-flip vs RTL relative-error syndrome",
		"in parentheses beside each measurement")
	fmt.Fprintf(w, "  %-10s %-12s %-20s %20s %20s\n", "app", "size", "domain", "bit-flip (paper)", "syndrome (paper)")
	row := func(name, size, domain string, flip, syn float64) {
		ref := paperPVF[name]
		fmt.Fprintf(w, "  %-10s %-12s %-20s %13.2f (%4.2f) %13.2f (%4.2f)\n", name, size, domain, flip, ref[0], syn, ref[1])
	}
	for _, e := range evals {
		row(e.Name, e.Size, e.Domain, e.BitFlip.PVF(), e.Syndrome.PVF())
	}
	for _, c := range nets {
		row(c.Name, "synthetic", "CNN", c.BitFlip.PVF(), c.Syndrome.PVF())
	}
}

func fig10(w io.Writer, evals []*gpufi.AppEvaluation) {
	head(w, "Fig. 10: bit-flip underestimation of the syndrome PVF",
		"the single bit-flip model underestimates the syndrome PVF by up to 48% (18% on average)")
	var sum, most float64
	for _, e := range evals {
		u := e.Underestimation()
		sum += u
		most = max(most, u)
		fmt.Fprintf(w, "  %-10s bitflip=%.3f syndrome=%.3f underestimation=%5.1f%%  (DUE share %.0f%% / %.0f%%)\n",
			e.Name, e.BitFlip.PVF(), e.Syndrome.PVF(), 100*u, 100*e.BitFlip.Tally.AVFDUE(), 100*e.Syndrome.Tally.AVFDUE())
	}
	fmt.Fprintf(w, "  underestimation: max %.0f%%, mean %.0f%%\n", 100*most, 100*sum/float64(len(evals)))
}

func engineAccounting(w io.Writer, evals []*gpufi.AppEvaluation, nets []*gpufi.CNNEvaluation) {
	head(w, "Campaign engine accounting (replay speedup)",
		"none; NVBitFI runs every injection in full on the GPU")
	for _, e := range evals {
		printEngineRow(w, e.Name, e.BitFlip.Counters, e.Syndrome.Counters)
	}
	for _, c := range nets {
		printEngineRow(w, c.Name, c.BitFlip.Counters, c.Syndrome.Counters, c.Tile.Counters)
	}
}

// printEngineRow renders the effective replay speedup over a subject's campaigns.
func printEngineRow(w io.Writer, name string, campaigns ...swfi.Counters) {
	var c swfi.Counters
	for _, o := range campaigns {
		c.Merge(o)
	}
	fmt.Fprintf(w, "  %-10s replay speedup %.2fx\n", name, c.FFSpeedup())
}

func sec6CNN(w io.Writer, nets []*gpufi.CNNEvaluation) {
	head(w, "§VI: CNN fault models and critical SDCs",
		"LeNET t-MxM PVF ~12x the relative-error PVF; critical SDCs 20% (LeNET) / 15% (YOLO)",
		"under t-MxM; single-thread models cause (almost) no misclassifications")
	for _, c := range nets {
		ratio := 0.0
		if c.Syndrome.PVF() > 0 {
			ratio = c.Tile.PVF() / c.Syndrome.PVF()
		}
		fmt.Fprintf(w, "  %-10s PVF: bitflip=%.3f syndrome=%.3f tile=%.3f (tile/syndrome %.1fx)\n",
			c.Name, c.BitFlip.PVF(), c.Syndrome.PVF(), c.Tile.PVF(), ratio)
		fmt.Fprintf(w, "  %-10s critical SDC share: bitflip=%4.1f%% syndrome=%4.1f%% tile=%4.1f%%\n",
			"", 100*c.BitFlip.CriticalShare(), 100*c.Syndrome.CriticalShare(), 100*c.Tile.CriticalShare())
	}
}

// sec6Time prices 48 000 injections into the suite's MxM at RTL and in
// software; the RTL side is extrapolated raw and credited with the
// characterisation's own replay speedup.
func sec6Time(w io.Writer, char *gpufi.Characterization, mm *gpufi.AppEvaluation) error {
	cm, err := gpufi.MeasureCost(mm.BitFlip.Campaign.Workload)
	if err != nil {
		return err
	}
	head(w, "§VI: RTL vs two-level injection cost",
		"one RTL injection into one application > 10 hours on a 12-CPU server;",
		"48,000 injections would take ~54 years vs ~350 GPU-hours with the framework")
	for _, speedup := range []float64{1, char.Telemetry().ReplaySpeedup()} {
		fmt.Fprintf(w, "  %s\n", cm.CompareWith(48000, speedup))
	}
	return nil
}

// app returns the suite application called name.
func app(evals []*gpufi.AppEvaluation, name string) *gpufi.AppEvaluation {
	return evals[slices.IndexFunc(evals, func(e *gpufi.AppEvaluation) bool { return e.Name == name })]
}

// rerun runs c, a campaign of the evaluation, again after edit: the same
// workload, seed and injection count, so the two results differ only by
// what edit changes.
func rerun(ctx context.Context, c gpufi.Campaign, edit func(*gpufi.Campaign)) (*gpufi.CampaignResult, error) {
	c.Progress = nil
	edit(&c)
	return gpufi.RunCampaignCtx(ctx, c)
}

func ablationTiles(w io.Writer, char *gpufi.Characterization) {
	head(w, "Ablation: t-MxM pipeline SDC AVF by tile kind",
		"the Zero tile masks most pipeline faults downstream (§V-D)")
	for _, res := range char.TMXM {
		if res.Spec.Module == faults.ModPipe {
			fmt.Fprintf(w, "  Pipeline/%-6s SDC AVF %.3f%%\n", res.Spec.Kind, 100*res.Tally.AVFSDC())
		}
	}
}

func ablationSampler(ctx context.Context, w io.Writer, evals []*gpufi.AppEvaluation) error {
	syn := app(evals, "MxM").Syndrome
	emp, err := rerun(ctx, syn.Campaign, func(c *gpufi.Campaign) { c.Model = gpufi.ModelSyndromeEmp })
	if err != nil {
		return err
	}
	head(w, "Ablation: Eq. 1 power-law sampler vs empirical reservoir sampler",
		"syndromes are drawn from the Eq. 1 power law (§V-C); an empirical sampler should agree")
	fmt.Fprintf(w, "  MxM PVF: powerlaw=%.3f empirical=%.3f\n", syn.PVF(), emp.PVF())
	return nil
}

func ablationDoubleFlip(ctx context.Context, w io.Writer, evals []*gpufi.AppEvaluation) error {
	single := app(evals, "Hotspot").BitFlip
	double, err := rerun(ctx, single.Campaign, func(c *gpufi.Campaign) { c.Model = gpufi.ModelDoubleBitFlip })
	if err != nil {
		return err
	}
	head(w, "Ablation: single vs double bit-flip on Hotspot",
		"NVBitFI's naive models; the number of flipped bits is not what the bit-flip model misses")
	fmt.Fprintf(w, "  PVF: single=%.3f double=%.3f\n", single.PVF(), double.PVF())
	return nil
}

func ablationCriterion(ctx context.Context, w io.Writer, evals []*gpufi.AppEvaluation) error {
	mm := app(evals, "MxM")
	type row struct{ tol, flip, syn float64 }
	rows := []row{{0, mm.BitFlip.PVF(), mm.Syndrome.PVF()}}
	for _, tol := range []float64{1e-6, 1e-3} {
		tolerate := func(c *gpufi.Campaign) { c.Tolerance = tol }
		flip, err := rerun(ctx, mm.BitFlip.Campaign, tolerate)
		if err != nil {
			return err
		}
		syn, err := rerun(ctx, mm.Syndrome.Campaign, tolerate)
		if err != nil {
			return err
		}
		rows = append(rows, row{tol, flip.PVF(), syn.PVF()})
	}
	head(w, "Ablation: SDC criterion (MxM PVF, bitwise vs tolerance compare)",
		"Table III compares outputs bitwise with the golden run")
	for _, r := range rows {
		fmt.Fprintf(w, "  tol=%-6g bitflip=%.3f syndrome=%.3f (gap %+.3f)\n", r.tol, r.flip, r.syn, r.syn-r.flip)
	}
	return nil
}

func ablationFocus(ctx context.Context, w io.Writer, evals []*gpufi.AppEvaluation) error {
	cocktail := app(evals, "MxM").Syndrome
	lines := []string{fmt.Sprintf("  %-10s PVF=%.3f\n", "cocktail", cocktail.PVF())}
	for _, mod := range []faults.Module{faults.ModFP32, faults.ModSched, faults.ModPipe} {
		res, err := rerun(ctx, cocktail.Campaign, func(c *gpufi.Campaign) { c.ModuleFocus = &mod })
		if err != nil {
			return err
		}
		lines = append(lines, fmt.Sprintf("  %-10s PVF=%.3f\n", mod, res.PVF()))
	}
	head(w, "Ablation: syndrome source focus (MxM PVF per assumed fault origin)",
		"software injection can draw the syndromes of one module only (§VI)")
	fmt.Fprint(w, strings.Join(lines, ""))
	return nil
}

func extensionSFU(ctx context.Context, w io.Writer, nFaults int, seed uint64) error {
	var lines []string
	for _, op := range rtlfi.ExtendedOpcodes() {
		res, err := rtlfi.RunMicroCtx(ctx, rtlfi.Spec{
			Op: op, Range: faults.RangeMedium, Module: faults.ModSFU, NumFaults: nFaults, Seed: seed,
		})
		if err != nil {
			return err
		}
		t := res.Tally
		lines = append(lines, fmt.Sprintf("  %-7s SDC AVF %.3f%%  multi share %.0f%%  avg threads %.1f\n",
			op, 100*t.AVFSDC(), 100*t.MultiShare(), t.AvgThreads()))
	}
	head(w, "Extension (§VII): RTL characterisation of FRCP/FRSQRT on the SFU",
		"characterising instructions beyond the 12 is left to future work")
	fmt.Fprint(w, strings.Join(lines, ""))
	return nil
}

func extensionFIT(w io.Writer, char *gpufi.Characterization) {
	const rawFITPerBit = 1e-4 // nominal SRAM-class FIT per bit
	head(w, "Extension (§VII): module FIT contributions (nominal 1e-4 FIT/bit)",
		"FUs dominate SDC FIT (size x AVF), the pipeline dominates DUE FIT (§V-B)")
	for _, e := range char.EstimateFIT(rawFITPerBit) {
		fmt.Fprintf(w, "  %-10s %6d FFs  SDC FIT %.4f  DUE FIT %.4f\n", e.Module, e.FFs, e.SDCFIT, e.DUEFIT)
	}
}

// runProfile prints the dynamic instruction profiles of the evaluated
// applications — the data behind Fig. 3 of the paper.
func runProfile(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, _ := command("profile", stderr)
	perOp := fs.Bool("ops", false, "print per-opcode counts instead of category shares")
	if err := parse(fs, args); err != nil {
		return err
	}
	return profiles(stdout, *perOp)
}

// profiles prints the profile of every suite application and CNN.
func profiles(w io.Writer, perOp bool) error {
	for _, wl := range gpufi.HPCSuite() {
		counts, err := gpufi.Profile(wl)
		if err != nil {
			return err
		}
		report(w, wl.Name, counts, perOp)
	}
	for _, name := range cnns {
		net, input, _, _ := swfi.EvalNetwork(name)
		counts, err := swfi.ProfileCNN(net, input)
		if err != nil {
			return err
		}
		report(w, net.Name, counts, perOp)
	}
	return nil
}

func report(w io.Writer, name string, counts swfi.Counts, perOp bool) {
	if !perOp {
		fmt.Fprintln(w, swfi.FigureProfile(name, counts))
		return
	}
	fmt.Fprintf(w, "%s (total %d thread-instructions):\n", name, counts.Total())
	var ops []isa.Opcode
	for op, n := range counts {
		if n > 0 {
			ops = append(ops, isa.Opcode(op))
		}
	}
	sort.Slice(ops, func(i, j int) bool { return counts[ops[i]] > counts[ops[j]] })
	for _, op := range ops {
		fmt.Fprintf(w, "  %-8s %10d (%5.1f%%)\n", op, counts[op], 100*float64(counts[op])/float64(counts.Total()))
	}
}
