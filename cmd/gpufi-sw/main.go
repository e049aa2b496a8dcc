// Command gpufi-sw runs software fault-injection campaigns (the NVBitFI
// analog, §IV-B/§VI) on the HPC applications and CNNs, reporting PVF under
// the selected fault model.
//
// Usage:
//
//	gpufi-sw [-app MxM|Lava|Quicksort|Hotspot|LUD|Gaussian|LeNet|Yolo]
//	         [-model bitflip|bitflip2|syndrome|syndrome-emp] [-db syndromes.json]
//	         [-n 1000] [-seed S]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Without -app, all six HPC applications run under the chosen model.
// LeNet and Yolo take the CNN models instead: bitflip, syndrome or tile.
//
// SIGINT cancels the campaign at the next injection boundary and prints
// how many injections completed before the interrupt.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpufi"
	"gpufi/cmd/internal/prof"
	"gpufi/internal/campaign"
	"gpufi/internal/swfi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi-sw: ")

	var (
		appName    = flag.String("app", "", "application (default: all six HPC apps)")
		model      = flag.String("model", "bitflip", "fault model: "+strings.Join(swfi.ModelNames(), ", ")+" (HPC apps); "+strings.Join(swfi.CNNModelNames(), ", ")+" (LeNet, Yolo)")
		dbPath     = flag.String("db", "", "syndrome database (required for syndrome/tile)")
		n          = flag.Int("n", 1000, "injections per campaign")
		seed       = flag.Uint64("seed", 7, "campaign seed")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var db *gpufi.DB
	if *dbPath != "" {
		var err error
		if db, err = gpufi.LoadDB(*dbPath); err != nil {
			log.Fatal(err)
		}
	}

	switch *appName {
	case "LeNet", "Yolo":
		runCNN(ctx, *appName, *model, db, *n, *seed)
		return
	}

	fm, ok := swfi.ParseModel(*model)
	if !ok {
		log.Fatalf("unknown model %q (want one of %s)", *model, strings.Join(swfi.ModelNames(), ", "))
	}
	if fm.NeedsDB() && db == nil {
		log.Fatal("-db is required for the syndrome model")
	}

	var workloads []*gpufi.Workload
	if *appName == "" {
		workloads = gpufi.HPCSuite()
	} else {
		w := findApp(*appName)
		if w == nil {
			log.Fatalf("unknown application %q", *appName)
		}
		workloads = []*gpufi.Workload{w}
	}

	for _, w := range workloads {
		var done campaign.Meter
		res, err := gpufi.RunCampaignCtx(ctx, gpufi.Campaign{
			Workload: w, Model: fm, DB: db, Injections: *n, Seed: *seed,
			Progress: done.Part(),
		})
		if err != nil {
			if ctx.Err() != nil {
				log.Fatalf("%s: interrupted after %d/%d injections (campaigns are deterministic, re-run to reproduce)",
					w.Name, done.Done(), *n)
			}
			log.Fatal(err)
		}
		logEngine(w.Name, res.Counters, res.Elapsed)
		lo, hi := res.PVFCI()
		t := res.Tally
		fmt.Printf("%-10s %-26s PVF=%.3f [%.3f, %.3f]  (masked %d, SDC %d, DUE %d)\n",
			w.Name, fm, res.PVF(), lo, hi, t.Maskeds, t.SDCs(), t.DUEs)
	}
}

// logEngine reports the campaign accelerator accounting: the effective replay
// speedup and the interpreter throughput (emulated MIPS over interpreted
// instructions; effective MIPS also credits the fast-forward-skipped ones).
func logEngine(name string, c swfi.Counters, elapsed time.Duration) {
	log.Printf("%s: engine replay speedup %.2fx (%d sim / %d skipped instrs), %.1f emu MIPS (%.1f effective)",
		name, c.FFSpeedup(), c.SimInstrs, c.SkippedInstrs, c.EmuMIPS(elapsed), c.EffectiveMIPS(elapsed))
}

func runCNN(ctx context.Context, name, model string, db *gpufi.DB, n int, seed uint64) {
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
		log.Fatalf("unknown CNN model %q (want one of %s)", model, strings.Join(swfi.CNNModelNames(), ", "))
	}
	if cm != swfi.CNNBitFlip && db == nil {
		log.Fatal("-db is required for syndrome/tile CNN models")
	}
	var done campaign.Meter
	res, err := gpufi.RunCNNCampaignCtx(ctx, gpufi.CNNCampaign{
		Net: net, Input: input, Model: cm, DB: db,
		Injections: n, Seed: seed, Critical: critical,
		Progress: done.Part(),
	})
	if err != nil {
		if ctx.Err() != nil {
			log.Fatalf("%s: interrupted after %d/%d injections (campaigns are deterministic, re-run to reproduce)",
				name, done.Done(), n)
		}
		log.Fatal(err)
	}
	logEngine(name, res.Counters, res.Elapsed)
	t := res.Tally
	fmt.Printf("%-10s %-26s PVF=%.3f  critical SDCs %d/%d (%.1f%%)  (masked %d, DUE %d)\n",
		name, cm, res.PVF(), res.CriticalSDC, t.SDCs(), 100*res.CriticalShare(), t.Maskeds, t.DUEs)
}

func findApp(name string) *gpufi.Workload {
	for _, w := range gpufi.HPCSuite() {
		if w.Name == name {
			return w
		}
	}
	return nil
}
