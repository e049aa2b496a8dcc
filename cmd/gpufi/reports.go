package main

import (
	"context"
	"fmt"
	"io"
	"sort"

	"gpufi"
	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtl"
	"gpufi/internal/swfi"
	"gpufi/internal/syndrome"
)

// stopped is what an interrupted experiments run reports.
const stopped = "interrupted; campaigns are deterministic, re-run to reproduce"

// runExperiments regenerates the paper's full evaluation section — every
// table and figure — and prints it as text. It is the CLI equivalent of
// `go test -bench=.` at the repository root, with adjustable scale.
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

	fmt.Fprintln(stdout, "== Table I: module inventory ==")
	for _, mod := range faults.AllModules() {
		fmt.Fprintf(stdout, "  %-10s %6d flip-flops\n", mod, rtl.ModuleBits(mod))
	}

	lg.Printf("RTL characterisation (%d faults per campaign)...", *rtlFaults)
	char, err := gpufi.CharacterizeCtx(ctx, gpufi.CharacterizeConfig{
		FaultsPerCampaign: *rtlFaults, TMXMFaults: *tmxm, Seed: *seed,
	})
	if err != nil {
		return interrupted(ctx, err, stopped)
	}

	fmt.Fprintln(stdout, "\n== Fig. 4: AVF per module and instruction ==")
	for _, r := range char.AVFTable() {
		fmt.Fprintf(stdout, "  %-10s %-5s SDC-single=%6.3f%% SDC-multi=%6.3f%% DUE=%6.3f%%\n",
			r.Module, r.Op, 100*r.SDCSingle, 100*r.SDCMulti, 100*r.DUE)
	}

	fmt.Fprintln(stdout, "\n== §V-C: syndrome power laws ==")
	for _, op := range isa.AllOpcodes() { // the database's canonical order
		for _, mod := range faults.AllModules() {
			key := syndrome.Key{Op: op, Range: faults.RangeMedium, Module: mod}
			if e := char.DB.Entries[key]; e != nil && e.Fit != nil {
				fmt.Fprintf(stdout, "  %-22s alpha=%.2f xmin=%.3g median=%.3g bits=%.1f\n",
					key, e.Fit.Alpha, e.Fit.Xmin, e.Median, e.AvgBits)
			}
		}
	}

	fmt.Fprintln(stdout, "\n== Fig. 7 / Table II: t-MxM ==")
	for _, res := range char.TMXM {
		fmt.Fprintf(stdout, "  %-10s %-6s AVF(SDC)=%.3f%% AVF(DUE)=%.3f%% multi-share=%.0f%% patterns=%v\n",
			res.Spec.Module, res.Spec.Kind,
			100*res.Tally.AVFSDC(), 100*res.Tally.AVFDUE(),
			100*res.Tally.MultiShare(), res.Patterns)
	}

	lg.Printf("software campaigns (%d injections per HPC app per model)...", *hpcInj)
	evals, err := gpufi.EvaluateHPCCtx(ctx, char.DB, gpufi.HPCSuite(), gpufi.EvalConfig{
		Injections: *hpcInj, Seed: *seed + 1,
	})
	if err != nil {
		return interrupted(ctx, err, stopped)
	}
	fmt.Fprintln(stdout, "\n== Fig. 10 / Table III: PVF ==")
	for _, e := range evals {
		fmt.Fprintf(stdout, "  %-10s bitflip=%.3f syndrome=%.3f (underestimation %.0f%%)\n",
			e.Name, e.BitFlip.PVF(), e.Syndrome.PVF(), 100*e.Underestimation())
	}

	fmt.Fprintln(stdout, "\n== Campaign engine accounting (replay speedup) ==")
	for _, e := range evals {
		printEngineRow(stdout, e.Name, e.BitFlip.Counters, e.Syndrome.Counters)
	}

	lg.Print("CNN campaigns...")
	lenet, err := gpufi.EvaluateCNNCtx(ctx, char.DB, "LeNetLite", cnn.NewLeNetLite(),
		cnn.LeNetInput(0), swfi.LeNetCritical, gpufi.EvalConfig{Injections: *cnnInj, Seed: *seed + 2})
	if err != nil {
		return interrupted(ctx, err, stopped)
	}
	yolo, err := gpufi.EvaluateCNNCtx(ctx, char.DB, "YoloLite", cnn.NewYoloLite(),
		cnn.YoloInput(0), swfi.YoloCritical, gpufi.EvalConfig{Injections: *yoloInj, Seed: *seed + 3})
	if err != nil {
		return interrupted(ctx, err, stopped)
	}
	fmt.Fprintln(stdout, "\n== §VI: CNN criticality ==")
	for _, c := range []*gpufi.CNNEvaluation{lenet, yolo} {
		fmt.Fprintf(stdout, "  %-10s PVF flip/syn/tile = %.3f/%.3f/%.3f  critical share %.0f%%/%.0f%%/%.0f%%\n",
			c.Name, c.BitFlip.PVF(), c.Syndrome.PVF(), c.Tile.PVF(),
			100*c.BitFlip.CriticalShare(), 100*c.Syndrome.CriticalShare(), 100*c.Tile.CriticalShare())
		printEngineRow(stdout, c.Name, c.BitFlip.Counters, c.Syndrome.Counters, c.Tile.Counters)
	}

	cm, err := gpufi.MeasureCost(apps.NewMxM(64))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n== §VI: time savings ==")
	fmt.Fprintf(stdout, "  %s\n", cm.Compare(48000))
	return nil
}

// printEngineRow renders the effective replay speedup over a subject's campaigns.
func printEngineRow(w io.Writer, name string, campaigns ...swfi.Counters) {
	var c swfi.Counters
	for _, o := range campaigns {
		c.Merge(o)
	}
	fmt.Fprintf(w, "  %-10s replay speedup %.2fx\n", name, c.FFSpeedup())
}

// runProfile prints the dynamic instruction profiles of the evaluated
// applications — the data behind Fig. 3 of the paper.
func runProfile(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, _ := command("profile", stderr)
	perOp := fs.Bool("ops", false, "print per-opcode counts instead of category shares")
	if err := parse(fs, args); err != nil {
		return err
	}

	for _, w := range gpufi.HPCSuite() {
		counts, err := gpufi.Profile(w)
		if err != nil {
			return err
		}
		report(stdout, w.Name, counts, *perOp)
	}
	for _, c := range []struct {
		name  string
		net   *gpufi.Network
		input []float32
	}{
		{"LeNetLite", gpufi.NewLeNetLite(), gpufi.LeNetInput(0)},
		{"YoloLite", gpufi.NewYoloLite(), gpufi.YoloInput(0)},
	} {
		counts, err := swfi.ProfileCNN(c.net, c.input)
		if err != nil {
			return err
		}
		report(stdout, c.name, counts, *perOp)
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
