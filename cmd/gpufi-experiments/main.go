// Command gpufi-experiments regenerates the paper's full evaluation
// section — every table and figure — and prints it as text. It is the CLI
// equivalent of `go test -bench=.` at the repository root, with
// adjustable scale.
//
// Usage:
//
//	gpufi-experiments [-rtl 2000] [-tmxm 2000] [-hpc 500] [-cnn 500] [-yolo 150] [-seed 2021]
package main

import (
	"flag"
	"fmt"
	"log"

	"gpufi"
	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/faults"
	"gpufi/internal/rtl"
	"gpufi/internal/swfi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi-experiments: ")
	var (
		rtlFaults = flag.Int("rtl", 2000, "RTL faults per campaign")
		tmxm      = flag.Int("tmxm", 2000, "t-MxM faults per campaign")
		hpcInj    = flag.Int("hpc", 500, "software injections per HPC app per model")
		cnnInj    = flag.Int("cnn", 500, "software injections per CNN model (LeNet)")
		yoloInj   = flag.Int("yolo", 150, "software injections per CNN model (Yolo)")
		seed      = flag.Uint64("seed", 2021, "seed")
	)
	flag.Parse()

	fmt.Println("== Table I: module inventory ==")
	for _, mod := range faults.AllModules() {
		fmt.Printf("  %-10s %6d flip-flops\n", mod, rtl.ModuleBits(mod))
	}

	log.Printf("RTL characterisation (%d faults per campaign)...", *rtlFaults)
	char, err := gpufi.Characterize(gpufi.CharacterizeConfig{
		FaultsPerCampaign: *rtlFaults, TMXMFaults: *tmxm, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== Fig. 4: AVF per module and instruction ==")
	for _, r := range char.AVFTable() {
		fmt.Printf("  %-10s %-5s SDC-single=%6.3f%% SDC-multi=%6.3f%% DUE=%6.3f%%\n",
			r.Module, r.Op, 100*r.SDCSingle, 100*r.SDCMulti, 100*r.DUE)
	}

	fmt.Println("\n== §V-C: syndrome power laws ==")
	for key, e := range char.DB.Entries {
		if e.Fit == nil || key.Range != faults.RangeMedium {
			continue
		}
		fmt.Printf("  %-22s alpha=%.2f xmin=%.3g median=%.3g bits=%.1f\n",
			key, e.Fit.Alpha, e.Fit.Xmin, e.Median, e.AvgBits)
	}

	fmt.Println("\n== Fig. 7 / Table II: t-MxM ==")
	for _, res := range char.TMXM {
		fmt.Printf("  %-10s %-6s AVF(SDC)=%.3f%% AVF(DUE)=%.3f%% multi-share=%.0f%% patterns=%v\n",
			res.Spec.Module, res.Spec.Kind,
			100*res.Tally.AVFSDC(), 100*res.Tally.AVFDUE(),
			100*res.Tally.MultiShare(), res.Patterns)
	}

	log.Printf("software campaigns (%d injections per HPC app per model)...", *hpcInj)
	evals, err := gpufi.EvaluateHPC(char.DB, gpufi.HPCSuite(), gpufi.EvalConfig{
		Injections: *hpcInj, Seed: *seed + 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Fig. 10 / Table III: PVF ==")
	for _, e := range evals {
		fmt.Printf("  %-10s bitflip=%.3f syndrome=%.3f (underestimation %.0f%%)\n",
			e.Name, e.BitFlip.PVF(), e.Syndrome.PVF(), 100*e.Underestimation())
	}

	fmt.Println("\n== Campaign engine accounting (replay speedup) ==")
	for _, e := range evals {
		printEngineRow(e.Name, e.BitFlip.Counters, e.Syndrome.Counters)
		if reason := e.BitFlip.NoReconvergeReason; reason != "" {
			fmt.Printf("             note: %s\n", reason)
		}
	}

	log.Print("CNN campaigns...")
	lenet, err := gpufi.EvaluateCNN(char.DB, "LeNetLite", cnn.NewLeNetLite(),
		cnn.LeNetInput(0), swfi.LeNetCritical, gpufi.EvalConfig{Injections: *cnnInj, Seed: *seed + 2})
	if err != nil {
		log.Fatal(err)
	}
	yolo, err := gpufi.EvaluateCNN(char.DB, "YoloLite", cnn.NewYoloLite(),
		cnn.YoloInput(0), swfi.YoloCritical, gpufi.EvalConfig{Injections: *yoloInj, Seed: *seed + 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== §VI: CNN criticality ==")
	for _, c := range []*gpufi.CNNEvaluation{lenet, yolo} {
		fmt.Printf("  %-10s PVF flip/syn/tile = %.3f/%.3f/%.3f  critical share %.0f%%/%.0f%%/%.0f%%\n",
			c.Name, c.BitFlip.PVF(), c.Syndrome.PVF(), c.Tile.PVF(),
			100*c.BitFlip.CriticalShare(), 100*c.Syndrome.CriticalShare(), 100*c.Tile.CriticalShare())
		printEngineRow(c.Name, c.BitFlip.Counters, c.Syndrome.Counters, c.Tile.Counters)
	}

	cm, err := gpufi.MeasureCost(apps.NewMxM(64))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== §VI: time savings ==")
	fmt.Printf("  %s\n", cm.Compare(48000))
}

// printEngineRow renders the effective replay speedup over a subject's campaigns.
func printEngineRow(name string, campaigns ...swfi.Counters) {
	var c swfi.Counters
	for _, o := range campaigns {
		c.Merge(o)
	}
	fmt.Printf("  %-10s replay speedup %.2fx\n", name, c.FFSpeedup())
}
