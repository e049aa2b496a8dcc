package gpufi_test

import (
	"context"
	"fmt"
	"log"

	"gpufi"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/syndrome"
)

// Characterise one instruction at RTL level, then inject the resulting
// syndromes into a matrix multiplication and compare against the naive
// single bit-flip model.
func Example() {
	// Step 1 — RTL characterisation (reduced scale: one opcode, the
	// medium input range is implied by the workload's operand values).
	fmt.Println("characterising FFMA at RTL level (FlexGripPlus analog)...")
	char, err := gpufi.CharacterizeCtx(context.Background(), gpufi.CharacterizeConfig{
		FaultsPerCampaign: 1000,
		Ops:               []isa.Opcode{isa.OpFFMA, isa.OpFADD},
		Seed:              1,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The database is a map; print its pools in its canonical order.
	for _, op := range isa.AllOpcodes() {
		for _, rng := range faults.AllRanges() {
			for _, mod := range faults.AllModules() {
				key := syndrome.Key{Op: op, Range: rng, Module: mod}
				if e := char.DB.Entries[key]; e != nil && e.Fit != nil {
					fmt.Printf("  %-22s SDCs=%4d  power law alpha=%.2f xmin=%.2g\n",
						key, e.Tally.SDCs(), e.Fit.Alpha, e.Fit.Xmin)
				}
			}
		}
	}

	// Step 2 — software injection on a 64x64 matrix multiplication.
	w := gpufi.NewMxM(64)
	for _, model := range []gpufi.FaultModel{gpufi.ModelBitFlip, gpufi.ModelSyndrome} {
		res, err := gpufi.RunCampaignCtx(context.Background(), gpufi.Campaign{
			Workload: w, Model: model, DB: char.DB,
			Injections: 200, Seed: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		lo, hi := res.PVFCI()
		fmt.Printf("MxM under %-26s PVF = %.3f [%.3f, %.3f]\n", model, res.PVF(), lo, hi)
	}
	// Output:
	// characterising FFMA at RTL level (FlexGripPlus analog)...
	//   FADD/S/FP32            SDCs=  28  power law alpha=1.08 xmin=6.5e-08
	//   FADD/S/Scheduler       SDCs=  10  power law alpha=2.66 xmin=0.49
	//   FADD/S/Pipeline        SDCs=  27  power law alpha=1.06 xmin=8.2e-06
	//   FADD/M/FP32            SDCs=  28  power law alpha=1.11 xmin=0.01
	//   FADD/M/Pipeline        SDCs=  22  power law alpha=1.11 xmin=0.00027
	//   FADD/L/FP32            SDCs=  25  power law alpha=1.07 xmin=1.1e-07
	//   FADD/L/Pipeline        SDCs=  22  power law alpha=1.10 xmin=8.2e-07
	//   FFMA/S/FP32            SDCs=  27  power law alpha=1.06 xmin=6.4e-08
	//   FFMA/S/Pipeline        SDCs=  28  power law alpha=1.10 xmin=1.3e-07
	//   FFMA/M/FP32            SDCs=  24  power law alpha=1.13 xmin=1.2e-07
	//   FFMA/M/Pipeline        SDCs=  25  power law alpha=1.51 xmin=0.22
	//   FFMA/L/FP32            SDCs=  25  power law alpha=1.11 xmin=1.9e-06
	//   FFMA/L/Scheduler       SDCs=   8  power law alpha=35287643585.33 xmin=1
	//   FFMA/L/Pipeline        SDCs=  33  power law alpha=1.07 xmin=1.2e-07
	// MxM under single bit-flip            PVF = 0.780 [0.718, 0.832]
	// MxM under relative error (power law) PVF = 0.910 [0.862, 0.942]
}

// HPC reliability study: reproduce the Fig. 10 / Table III comparison —
// the PVF of six HPC applications under the naive single bit-flip model
// and under RTL-derived fault syndromes.
func ExampleEvaluateHPCCtx() {
	const n = 300 // injections per application per model

	fmt.Println("building the syndrome database (full RTL characterisation)...")
	char, err := gpufi.CharacterizeCtx(context.Background(), gpufi.CharacterizeConfig{
		FaultsPerCampaign: 1500, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("injecting %d faults per application per model...\n", n)
	evals, err := gpufi.EvaluateHPCCtx(context.Background(), char.DB, gpufi.HPCSuite(), gpufi.EvalConfig{
		Injections: n, Seed: 12,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-10s %-12s %-20s %10s %10s %8s\n",
		"app", "size", "domain", "bit-flip", "syndrome", "under%")
	for _, e := range evals {
		fmt.Printf("%-10s %-12s %-20s %10.3f %10.3f %7.0f%%\n",
			e.Name, e.Size, e.Domain,
			e.BitFlip.PVF(), e.Syndrome.PVF(), 100*e.Underestimation())
	}
	fmt.Println("\npaper (Table III): the single bit-flip model underestimates PVF by up to 48% (18% avg).")
	// Output:
	// building the syndrome database (full RTL characterisation)...
	// injecting 300 faults per application per model...
	//
	// app        size         domain                 bit-flip   syndrome   under%
	// MxM        64x64        Linear algebra            0.787      0.767      -3%
	// Lava       2 3D boxes   Particle simulation       0.713      0.763       7%
	// Quicksort  512 keys     Sorting                   0.427      0.560      24%
	// Hotspot    32x32        Physics simulation        0.313      0.377      17%
	// LUD        32x32        Linear algebra            0.703      0.707       0%
	// Gaussian   32x32        Linear algebra            0.563      0.553      -2%
	//
	// paper (Table III): the single bit-flip model underestimates PVF by up to 48% (18% avg).
}

// CNN resilience study: reproduce the §VI analysis — LeNET-class and
// YOLO-class networks under single bit-flips, RTL syndromes, and the
// multi-thread t-MxM tile corruption, separating tolerable from critical
// SDCs (misclassifications / misdetections).
func ExampleEvaluateCNNCtx() {
	const n = 200 // injections per model

	fmt.Println("building the syndrome database (incl. t-MxM characterisation)...")
	char, err := gpufi.CharacterizeCtx(context.Background(), gpufi.CharacterizeConfig{
		FaultsPerCampaign: 1500, TMXMFaults: 2500, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}

	lenet, err := gpufi.EvaluateCNNCtx(context.Background(), char.DB, "LeNetLite", gpufi.NewLeNetLite(),
		gpufi.LeNetInput(0), gpufi.LeNetCritical, gpufi.EvalConfig{Injections: n, Seed: 22})
	if err != nil {
		log.Fatal(err)
	}
	yolo, err := gpufi.EvaluateCNNCtx(context.Background(), char.DB, "YoloLite", gpufi.NewYoloLite(),
		gpufi.YoloInput(0), gpufi.YoloCritical, gpufi.EvalConfig{Injections: n / 2, Seed: 23})
	if err != nil {
		log.Fatal(err)
	}

	for _, c := range []*gpufi.CNNEvaluation{lenet, yolo} {
		fmt.Printf("\n%s:\n", c.Name)
		fmt.Printf("  %-28s PVF=%.3f  critical SDC share %.1f%%\n",
			"single bit-flip", c.BitFlip.PVF(), 100*c.BitFlip.CriticalShare())
		fmt.Printf("  %-28s PVF=%.3f  critical SDC share %.1f%%\n",
			"RTL syndrome (single thread)", c.Syndrome.PVF(), 100*c.Syndrome.CriticalShare())
		fmt.Printf("  %-28s PVF=%.3f  critical SDC share %.1f%%\n",
			"t-MxM tile (multi thread)", c.Tile.PVF(), 100*c.Tile.CriticalShare())
	}
	fmt.Println("\npaper (§VI): only the multi-thread t-MxM model produces substantial misclassifications")
	fmt.Println("(20% critical for LeNET, 15% for YOLO); single-thread models produce (almost) none.")
	// Output:
	// building the syndrome database (incl. t-MxM characterisation)...
	//
	// LeNetLite:
	//   single bit-flip              PVF=0.120  critical SDC share 8.3%
	//   RTL syndrome (single thread) PVF=0.235  critical SDC share 36.2%
	//   t-MxM tile (multi thread)    PVF=0.515  critical SDC share 39.8%
	//
	// YoloLite:
	//   single bit-flip              PVF=0.270  critical SDC share 0.0%
	//   RTL syndrome (single thread) PVF=0.440  critical SDC share 15.9%
	//   t-MxM tile (multi thread)    PVF=0.790  critical SDC share 6.3%
	//
	// paper (§VI): only the multi-thread t-MxM model produces substantial misclassifications
	// (20% critical for LeNET, 15% for YOLO); single-thread models produce (almost) none.
}

// Hardening-priority analysis: rank GPU modules by their size-weighted
// AVF, the paper's guidance for where hardening effort pays off (§V-B:
// functional units drive SDCs, pipeline control registers drive DUEs,
// and the small control structures corrupt many threads at once).
func ExampleCharacterization_RankModules() {
	fmt.Println("characterising all modules (this runs the full RTL phase)...")
	char, err := gpufi.CharacterizeCtx(context.Background(), gpufi.CharacterizeConfig{
		FaultsPerCampaign: 1500, Seed: 31,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-10s %8s %10s %10s %14s %14s\n",
		"module", "FFs", "AVF(SDC)", "AVF(DUE)", "weighted SDC", "weighted DUE")
	for _, mc := range char.RankModules() {
		fmt.Printf("%-10s %8d %9.3f%% %9.3f%% %14.1f %14.1f\n",
			mc.Module, mc.Size, 100*mc.AVFSDC, 100*mc.AVFDUE, mc.WeightedSDC, mc.WeightedDUE)
	}

	// Multi-thread corruption is the second hardening criterion: small
	// control structures with modest AVF still wreck whole warps.
	fmt.Printf("\n%-10s %22s %18s\n", "module", "avg corrupted threads", "multi-SDC share")
	agg := map[string][3]float64{}
	for _, row := range char.AVFTable() {
		cur := agg[row.Module.String()]
		cur[0] += row.AvgThreads
		cur[1] += row.SDCMulti
		cur[2]++
		agg[row.Module.String()] = cur
	}
	for _, mc := range char.RankModules() {
		if v, ok := agg[mc.Module.String()]; ok && v[2] > 0 {
			fmt.Printf("%-10s %22.1f %17.2f%%\n", mc.Module, v[0]/v[2], 100*v[1]/v[2])
		}
	}
	fmt.Println("\npaper (§VI): control structures (scheduler, pipeline control, SFU control) are the")
	fmt.Println("primary sources of multi-thread corruptions and should be the hardening targets.")
	// Output:
	// characterising all modules (this runs the full RTL phase)...
	//
	// module          FFs   AVF(SDC)   AVF(DUE)   weighted SDC   weighted DUE
	// Pipeline      10949     2.720%     1.389%          297.9          152.1
	// SFU            3231     7.711%     0.000%          249.1            0.0
	// FP32           4451     2.467%     0.000%          109.8            0.0
	// INT            1542     4.156%     1.333%           64.1           20.6
	// Scheduler      3358     0.822%     1.335%           27.6           44.8
	// SFUctl          190     3.689%     0.000%            7.0            0.0
	//
	// module      avg corrupted threads    multi-SDC share
	// Pipeline                      2.7              0.23%
	// SFU                           5.6              4.69%
	// FP32                          1.2              0.07%
	// INT                           1.1              0.05%
	// Scheduler                    13.5              0.70%
	// SFUctl                        1.8              0.10%
	//
	// paper (§VI): control structures (scheduler, pipeline control, SFU control) are the
	// primary sources of multi-thread corruptions and should be the hardening targets.
}
