package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"slices"
	"strings"
	"time"

	"gpufi"
	"gpufi/internal/campaign"
	"gpufi/internal/swfi"
)

// runSW runs software fault-injection campaigns (the NVBitFI analog,
// §IV-B/§VI) on the HPC applications and CNNs, reporting PVF under the
// selected fault model. Without -app, all six HPC applications run under
// the chosen model; LeNet and Yolo take the CNN models instead: bitflip,
// syndrome or tile.
func runSW(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	fs, lg := command("sw", stderr)
	var (
		appName    = fs.String("app", "", "application (default: all six HPC apps)")
		model      = fs.String("model", "bitflip", "fault model: "+strings.Join(swfi.ModelNames(), ", ")+" (HPC apps); "+strings.Join(swfi.CNNModelNames(), ", ")+" (LeNet, Yolo)")
		dbPath     = fs.String("db", "", "syndrome database (required for syndrome/tile)")
		n          = fs.Int("n", 1000, "injections per campaign")
		seed       = fs.Uint64("seed", 7, "campaign seed")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = fs.String("memprofile", "", "write a heap profile to this path on exit")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	stopProf, err := startProfile(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopProf()) }()

	var db *gpufi.DB
	if *dbPath != "" {
		if db, err = gpufi.LoadDB(*dbPath); err != nil {
			return err
		}
	}

	switch *appName {
	case "LeNet", "Yolo":
		return swCNN(ctx, stdout, lg, *appName, *model, db, *n, *seed)
	}

	fm, ok := swfi.ParseModel(*model)
	if !ok {
		return fmt.Errorf("unknown model %q (want one of %s)", *model, strings.Join(swfi.ModelNames(), ", "))
	}
	if fm.NeedsDB() && db == nil {
		return errors.New("-db is required for the syndrome model")
	}

	workloads := gpufi.HPCSuite()
	if *appName != "" {
		i := slices.IndexFunc(workloads, func(w *gpufi.Workload) bool { return w.Name == *appName })
		if i < 0 {
			return fmt.Errorf("unknown application %q", *appName)
		}
		workloads = workloads[i : i+1]
	}

	for _, w := range workloads {
		var done campaign.Meter
		res, err := gpufi.RunCampaignCtx(ctx, gpufi.Campaign{
			Workload: w, Model: fm, DB: db, Injections: *n, Seed: *seed,
			Progress: done.Part(),
		})
		if err != nil {
			return interrupted(ctx, err, "%s: interrupted after %d/%d injections (campaigns are deterministic, re-run to reproduce)",
				w.Name, done.Done(), *n)
		}
		logEngine(lg, w.Name, res.Counters, res.Elapsed)
		lo, hi := res.PVFCI()
		t := res.Tally
		fmt.Fprintf(stdout, "%-10s %-26s PVF=%.3f [%.3f, %.3f]  (masked %d, SDC %d, DUE %d)\n",
			w.Name, fm, res.PVF(), lo, hi, t.Maskeds, t.SDCs(), t.DUEs)
	}
	return nil
}

// logEngine reports the campaign accelerator accounting: the effective replay
// speedup and the interpreter throughput (emulated MIPS over interpreted
// instructions; effective MIPS also credits the fast-forward-skipped ones).
func logEngine(lg *log.Logger, name string, c swfi.Counters, elapsed time.Duration) {
	lg.Printf("%s: engine replay speedup %.2fx (%d sim / %d skipped instrs), %.1f emu MIPS (%.1f effective)",
		name, c.FFSpeedup(), c.SimInstrs, c.SkippedInstrs, c.EmuMIPS(elapsed), c.EffectiveMIPS(elapsed))
}

// swCNN runs one CNN campaign on LeNetLite or YoloLite.
func swCNN(ctx context.Context, stdout io.Writer, lg *log.Logger, name, model string, db *gpufi.DB, n int, seed uint64) error {
	var (
		net      *gpufi.Network
		input    []float32
		critical func(a, b []float32) bool
	)
	if name == "LeNet" {
		net, input, critical = gpufi.NewLeNetLite(), gpufi.LeNetInput(0), gpufi.LeNetCritical
	} else {
		net, input, critical = gpufi.NewYoloLite(), gpufi.YoloInput(0), gpufi.YoloCritical
	}
	cm, ok := swfi.ParseCNNModel(model)
	if !ok {
		return fmt.Errorf("unknown CNN model %q (want one of %s)", model, strings.Join(swfi.CNNModelNames(), ", "))
	}
	if cm != swfi.CNNBitFlip && db == nil {
		return errors.New("-db is required for syndrome/tile CNN models")
	}
	var done campaign.Meter
	res, err := gpufi.RunCNNCampaignCtx(ctx, gpufi.CNNCampaign{
		Net: net, Input: input, Model: cm, DB: db,
		Injections: n, Seed: seed, Critical: critical,
		Progress: done.Part(),
	})
	if err != nil {
		return interrupted(ctx, err, "%s: interrupted after %d/%d injections (campaigns are deterministic, re-run to reproduce)",
			name, done.Done(), n)
	}
	logEngine(lg, name, res.Counters, res.Elapsed)
	t := res.Tally
	fmt.Fprintf(stdout, "%-10s %-26s PVF=%.3f  critical SDCs %d/%d (%.1f%%)  (masked %d, DUE %d)\n",
		name, cm, res.PVF(), res.CriticalSDC, t.SDCs(), 100*res.CriticalShare(), t.Maskeds, t.DUEs)
	return nil
}
