package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"gpufi"
	"gpufi/internal/campaign"
	"gpufi/internal/core"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtlfi"
	"gpufi/internal/syndrome"
)

// runRTL runs RTL fault-injection campaigns on the FlexGripPlus analog
// and writes the resulting fault-syndrome database, the framework's
// publishable artefact (§V of the paper). Without -op the full
// characterisation runs: every characterised opcode x input range x
// exercised module, plus the t-MxM campaigns. An interrupted
// characterisation writes no partial database.
func runRTL(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs, lg := command("rtl", stderr)
	var (
		nFaults    = fs.Int("faults", 2000, "faults per campaign")
		nTMXM      = fs.Int("tmxm", 0, "faults per t-MxM campaign (default: -faults)")
		seed       = fs.Uint64("seed", 2021, "campaign seed")
		out        = fs.String("out", "syndromes.json", "output database path")
		opName     = fs.String("op", "", "single opcode to characterise (e.g. FFMA)")
		rngName    = fs.String("range", "M", "input range for -op (S, M, L)")
		modName    = fs.String("module", "FP32", "module for -op (FP32, INT, SFU, SFUctl, Scheduler, Pipeline)")
		verbose    = fs.Bool("v", false, "print per-campaign summaries")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = fs.String("memprofile", "", "write a heap profile to this path on exit")
		detailed   = fs.String("detailed", "", "write the single-campaign detailed report (CSV) to this path")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	stopProf, err := startProfile(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	if *opName != "" {
		return rtlSingle(ctx, stdout, stderr, lg, *opName, *rngName, *modName, *nFaults, *seed, *detailed)
	}

	cfg := gpufi.CharacterizeConfig{FaultsPerCampaign: *nFaults, TMXMFaults: *nTMXM, Seed: *seed}
	total := 0 // known up front, so an interrupt before the first report still names it
	for _, u := range core.Plan(cfg) {
		total += u.Faults
	}
	var done campaign.Meter
	cfg.Progress = done.Part()
	lg.Printf("running full RTL characterisation (%d faults/campaign)...", *nFaults)
	char, err := gpufi.CharacterizeCtx(ctx, cfg)
	if err != nil {
		return interrupted(ctx, err, "interrupted after %d/%d faults; nothing written (campaigns are deterministic, re-run to reproduce)",
			done.Done(), total)
	}
	if *verbose {
		for _, row := range char.AVFTable() {
			fmt.Fprintf(stdout, "%-10s %-5s SDC=%6.3f%% (multi %6.3f%%) DUE=%6.3f%%\n",
				row.Module, row.Op, 100*(row.SDCSingle+row.SDCMulti), 100*row.SDCMulti, 100*row.DUE)
		}
		for _, mc := range char.RankModules() {
			fmt.Fprintf(stdout, "hardening rank: %-10s size=%5d AVF(SDC)=%.3f%% weighted=%.1f\n",
				mc.Module, mc.Size, 100*mc.AVFSDC, mc.WeightedSDC)
		}
	}
	tel := char.Telemetry()
	lg.Printf("engine: %d injections, %s", tel.Injections, engineLine(tel))
	if err := gpufi.SaveDB(char.DB, *out); err != nil {
		return err
	}
	lg.Printf("wrote %s (%d entries, %d t-MxM pools)", *out, len(char.DB.Entries), len(char.DB.TMXM))
	return nil
}

// engineLine renders the campaign engine's accounting: how the faults
// were resolved, and the rates and replay speedup that follow.
func engineLine(c rtlfi.Counters) string {
	return fmt.Sprintf("%d cycles simulated, %d skipped, %d dead-pruned, %d marched in %d marches (prune rate %.1f%%, vector rate %.1f%%, lane occupancy %.1f%%, replay speedup %.1fx)",
		c.SimCycles, c.SkippedCycles, c.PrunedFaults, c.VectorFaults, c.Marches,
		100*c.PruneRate(), 100*c.VectorRate(), 100*c.LaneOccupancy(), c.ReplaySpeedup())
}

// rtlSingle characterises one (op, range, module) pool, prints its
// detailed statistics and, when detailed is set, writes its detailed
// report there.
func rtlSingle(ctx context.Context, stdout, stderr io.Writer, lg *log.Logger,
	opName, rngName, modName string, nFaults int, seed uint64, detailed string) error {
	op, ok := isa.ParseCharacterized(opName)
	if !ok {
		return fmt.Errorf("unknown opcode %q", opName)
	}
	rng, ok := faults.ParseRange(rngName)
	if !ok {
		return fmt.Errorf("unknown range %q (want S, M or L)", rngName)
	}
	mod, ok := faults.ParseModule(modName)
	if !ok {
		return fmt.Errorf("unknown module %q", modName)
	}
	var done campaign.Meter
	res, err := rtlfi.RunMicroCtx(ctx, rtlfi.Spec{
		Op: op, Range: rng, Module: mod, NumFaults: nFaults, Seed: seed,
		Progress: done.Part(),
	})
	if err != nil {
		return interrupted(ctx, err, "interrupted after %d/%d faults; nothing written", done.Done(), nFaults)
	}
	if err := res.WriteGeneralReport(stderr); err != nil {
		return err
	}
	e := syndrome.New().AddMicro(res)
	t := res.Tally
	fmt.Fprintf(stdout, "%s/%s/%s: %d injections\n", op, rng, mod, t.Injections)
	fmt.Fprintf(stdout, "  masked %d  SDC %d (single %d, multi %d)  DUE %d\n",
		t.Maskeds, t.SDCs(), t.SDCSingle, t.SDCMulti, t.DUEs)
	fmt.Fprintf(stdout, "  AVF: SDC %.3f%%  DUE %.3f%%  avg corrupted threads %.1f\n",
		100*t.AVFSDC(), 100*t.AVFDUE(), t.AvgThreads())
	fmt.Fprintf(stdout, "  engine: %s\n", engineLine(res.Counters))
	if e.Fit != nil {
		fmt.Fprintf(stdout, "  syndrome power law: alpha=%.3f xmin=%.3g KS=%.3f (median %.3g, avg bits %.1f)\n",
			e.Fit.Alpha, e.Fit.Xmin, e.Fit.KS, e.Median, e.AvgBits)
	}
	fmt.Fprintf(stdout, "  histogram: %s\n", e.Hist)
	if detailed == "" {
		return nil
	}
	f, err := os.Create(detailed)
	if err != nil {
		return err
	}
	if err := errors.Join(res.WriteDetailedReport(f), f.Close()); err != nil {
		return err
	}
	lg.Printf("wrote detailed report to %s (%d SDC records)", detailed, len(res.Details))
	return nil
}
