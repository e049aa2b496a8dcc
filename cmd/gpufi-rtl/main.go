// Command gpufi-rtl runs RTL fault-injection campaigns on the FlexGripPlus
// analog and writes the resulting fault-syndrome database, the framework's
// publishable artefact (§V of the paper).
//
// Usage:
//
//	gpufi-rtl [-faults N] [-tmxm N] [-seed S] [-out db.json]
//	          [-op FADD] [-range M] [-module FP32] [-v]
//	          [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Without -op the full characterisation runs: every characterised opcode x
// input range x exercised module, plus the t-MxM campaigns.
//
// SIGINT cancels the campaign at the next fault boundary and prints how
// far it got; no partial database is written.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"gpufi"
	"gpufi/cmd/internal/prof"
	"gpufi/internal/campaign"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtlfi"
	"gpufi/internal/syndrome"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi-rtl: ")

	var (
		nFaults    = flag.Int("faults", 2000, "faults per campaign")
		nTMXM      = flag.Int("tmxm", 0, "faults per t-MxM campaign (default: -faults)")
		seed       = flag.Uint64("seed", 2021, "campaign seed")
		out        = flag.String("out", "syndromes.json", "output database path")
		opName     = flag.String("op", "", "single opcode to characterise (e.g. FFMA)")
		rngName    = flag.String("range", "M", "input range for -op (S, M, L)")
		modName    = flag.String("module", "FP32", "module for -op (FP32, INT, SFU, SFUctl, Scheduler, Pipeline)")
		verbose    = flag.Bool("v", false, "print per-campaign summaries")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path on exit")
	)
	detailedPath = flag.String("detailed", "", "write the single-campaign detailed report (CSV) to this path")
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *opName != "" {
		runSingle(ctx, *opName, *rngName, *modName, *nFaults, *seed)
		return
	}

	var total atomic.Int64 // of the plan; it arrives with the reports
	var done campaign.Meter
	part := done.Part()
	cfg := gpufi.CharacterizeConfig{
		FaultsPerCampaign: *nFaults,
		TMXMFaults:        *nTMXM,
		Seed:              *seed,
		Progress: func(d, t int) {
			part(d, t)
			total.Store(int64(t))
		},
	}
	log.Printf("running full RTL characterisation (%d faults/campaign)...", *nFaults)
	char, err := gpufi.CharacterizeCtx(ctx, cfg)
	if err != nil {
		if ctx.Err() != nil {
			log.Fatalf("interrupted after %d/%d faults; nothing written (campaigns are deterministic, re-run to reproduce)",
				done.Done(), total.Load())
		}
		log.Fatal(err)
	}
	if *verbose {
		for _, row := range char.AVFTable() {
			fmt.Printf("%-10s %-5s SDC=%6.3f%% (multi %6.3f%%) DUE=%6.3f%%\n",
				row.Module, row.Op, 100*(row.SDCSingle+row.SDCMulti), 100*row.SDCMulti, 100*row.DUE)
		}
		for _, mc := range char.RankModules() {
			fmt.Printf("hardening rank: %-10s size=%5d AVF(SDC)=%.3f%% weighted=%.1f\n",
				mc.Module, mc.Size, 100*mc.AVFSDC, mc.WeightedSDC)
		}
	}
	tel := char.Telemetry()
	log.Printf("engine: %d injections, %s", tel.Injections, engineLine(tel))
	if err := gpufi.SaveDB(char.DB, *out); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d entries, %d t-MxM pools)", *out, len(char.DB.Entries), len(char.DB.TMXM))
}

// engineLine renders the campaign engine's accounting: how the faults
// were resolved, and the rates and replay speedup that follow.
func engineLine(c rtlfi.Counters) string {
	return fmt.Sprintf("%d cycles simulated, %d skipped, %d dead-pruned, %d marched in %d marches (prune rate %.1f%%, vector rate %.1f%%, lane occupancy %.1f%%, replay speedup %.1fx)",
		c.SimCycles, c.SkippedCycles, c.PrunedFaults, c.VectorFaults, c.Marches,
		100*c.PruneRate(), 100*c.VectorRate(), 100*c.LaneOccupancy(), c.ReplaySpeedup())
}

// runSingle characterises one (op, range, module) pool and prints its
// detailed statistics.
func runSingle(ctx context.Context, opName, rngName, modName string, nFaults int, seed uint64) {
	op, ok := isa.ParseCharacterized(opName)
	if !ok {
		log.Fatalf("unknown opcode %q", opName)
	}
	rng, ok := faults.ParseRange(rngName)
	if !ok {
		log.Fatalf("unknown range %q (want S, M or L)", rngName)
	}
	mod, ok := faults.ParseModule(modName)
	if !ok {
		log.Fatalf("unknown module %q", modName)
	}
	var done campaign.Meter
	res, err := rtlfi.RunMicroCtx(ctx, rtlfi.Spec{
		Op: op, Range: rng, Module: mod, NumFaults: nFaults, Seed: seed,
		Progress: done.Part(),
	})
	if err != nil {
		if ctx.Err() != nil {
			log.Fatalf("interrupted after %d/%d faults; nothing written", done.Done(), nFaults)
		}
		log.Fatal(err)
	}
	if err := res.WriteGeneralReport(os.Stderr); err != nil {
		log.Fatal(err)
	}
	db := syndrome.New()
	e := db.AddMicro(res)
	t := res.Tally
	fmt.Printf("%s/%s/%s: %d injections\n", op, rng, mod, t.Injections)
	fmt.Printf("  masked %d  SDC %d (single %d, multi %d)  DUE %d\n",
		t.Maskeds, t.SDCs(), t.SDCSingle, t.SDCMulti, t.DUEs)
	fmt.Printf("  AVF: SDC %.3f%%  DUE %.3f%%  avg corrupted threads %.1f\n",
		100*t.AVFSDC(), 100*t.AVFDUE(), t.AvgThreads())
	fmt.Printf("  engine: %s\n", engineLine(res.Counters))
	if e.Fit != nil {
		fmt.Printf("  syndrome power law: alpha=%.3f xmin=%.3g KS=%.3f (median %.3g, avg bits %.1f)\n",
			e.Fit.Alpha, e.Fit.Xmin, e.Fit.KS, e.Median, e.AvgBits)
	}
	fmt.Printf("  histogram: %s\n", e.Hist)
	if *detailedPath != "" {
		f, err := os.Create(*detailedPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := res.WriteDetailedReport(f); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote detailed report to %s (%d SDC records)", *detailedPath, len(res.Details))
	}
}

var detailedPath *string
