// Command gpufi-sw runs software fault-injection campaigns (the NVBitFI
// analog, §IV-B/§VI) on the HPC applications and CNNs, reporting PVF under
// the selected fault model.
//
// Usage:
//
//	gpufi-sw [-app MxM|Lava|Quicksort|Hotspot|LUD|Gaussian|LeNet|Yolo]
//	         [-model bitflip|bitflip2|syndrome|tile] [-db syndromes.json]
//	         [-n 1000] [-seed S] [-no-fast-forward] [-no-fast-path]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//
// Without -app, all six HPC applications run under the chosen model.
// -no-fast-forward disables the golden-prefix checkpoint optimisation and
// re-simulates every injection run from instruction zero; -no-fast-path
// forces the reference (Tier 0) interpreter instead of the pre-decoded
// fast path. Results are bit-identical under every combination; the flags
// exist for regression comparison and for benchmarking the accelerator
// layers themselves.
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
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"gpufi"
	"gpufi/internal/campaign"
	"gpufi/internal/swfi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi-sw: ")

	var (
		appName    = flag.String("app", "", "application (default: all six HPC apps)")
		model      = flag.String("model", "bitflip", "fault model: bitflip, bitflip2, syndrome, tile")
		dbPath     = flag.String("db", "", "syndrome database (required for syndrome/tile)")
		n          = flag.Int("n", 1000, "injections per campaign")
		seed       = flag.Uint64("seed", 7, "campaign seed")
		noFF       = flag.Bool("no-fast-forward", false, "replay every injection run in full instead of restoring golden-prefix checkpoints")
		noFastPath = flag.Bool("no-fast-path", false, "force the reference (Tier 0) interpreter instead of the pre-decoded fast path (results are bit-identical)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path on exit")
	)
	flag.Parse()

	stopProf, err := startProfiles(*cpuProfile, *memProfile)
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
		runCNN(ctx, *appName, *model, db, *n, *seed, *noFF, *noFastPath)
		return
	}

	fm, ok := parseModel(*model)
	if !ok {
		log.Fatalf("unknown model %q", *model)
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
			NoFastForward: *noFF, NoFastPath: *noFastPath,
			Progress: done.Part(),
		})
		if err != nil {
			if ctx.Err() != nil {
				log.Fatalf("%s: interrupted after %d/%d injections (campaigns are deterministic, re-run to reproduce)",
					w.Name, done.Done(), *n)
			}
			log.Fatal(err)
		}
		if res.NoReconvergeReason != "" {
			log.Printf("%s: %s", w.Name, res.NoReconvergeReason)
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
	if c.SimInstrs == 0 && c.SkippedInstrs == 0 {
		return // NoFastForward: the engine ran plainly, nothing to report
	}
	log.Printf("%s: engine replay speedup %.2fx (%d sim / %d skipped instrs), %.1f emu MIPS (%.1f effective)",
		name, c.FFSpeedup(), c.SimInstrs, c.SkippedInstrs, c.EmuMIPS(elapsed), c.EffectiveMIPS(elapsed))
}

// startProfiles starts CPU profiling and arranges a heap profile, both
// optional; the returned stop function must run before the process exits.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise the retained-heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}
	}, nil
}

func runCNN(ctx context.Context, name, model string, db *gpufi.DB, n int, seed uint64, noFF, noFastPath bool) {
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
	var cm swfi.CNNModel
	switch model {
	case "bitflip":
		cm = swfi.CNNBitFlip
	case "syndrome":
		cm = swfi.CNNSyndrome
	case "tile":
		cm = swfi.CNNTile
	default:
		log.Fatalf("CNN model must be bitflip, syndrome or tile (got %q)", model)
	}
	if cm != swfi.CNNBitFlip && db == nil {
		log.Fatal("-db is required for syndrome/tile CNN models")
	}
	var done campaign.Meter
	res, err := gpufi.RunCNNCampaignCtx(ctx, gpufi.CNNCampaign{
		Net: net, Input: input, Model: cm, DB: db,
		Injections: n, Seed: seed, Critical: critical,
		NoFastForward: noFF, NoFastPath: noFastPath,
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

func parseModel(s string) (gpufi.FaultModel, bool) {
	switch s {
	case "bitflip":
		return gpufi.ModelBitFlip, true
	case "bitflip2":
		return gpufi.ModelDoubleBitFlip, true
	case "syndrome":
		return gpufi.ModelSyndrome, true
	case "syndrome-emp":
		return gpufi.ModelSyndromeEmp, true
	default:
		return 0, false
	}
}

func findApp(name string) *gpufi.Workload {
	for _, w := range gpufi.HPCSuite() {
		if w.Name == name {
			return w
		}
	}
	return nil
}
