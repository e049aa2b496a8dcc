package core

import (
	"context"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/swfi"
)

// smallCharacterization runs a reduced RTL phase once for all core tests.
var cachedChar *Characterization

func smallCharacterization(t *testing.T) *Characterization {
	t.Helper()
	if cachedChar != nil {
		return cachedChar
	}
	c, err := CharacterizeCtx(context.Background(), CharacterizeConfig{
		FaultsPerCampaign: 300,
		TMXMFaults:        400,
		Seed:              99,
		Ops:               []isa.Opcode{isa.OpFADD, isa.OpFFMA, isa.OpIADD, isa.OpFSIN, isa.OpGLD},
		Ranges:            []faults.InputRange{faults.RangeMedium},
	})
	if err != nil {
		t.Fatal(err)
	}
	cachedChar = c
	return c
}

func TestCharacterizeBuildsAllCampaigns(t *testing.T) {
	c := smallCharacterization(t)
	// FADD/FFMA: FP32+Sched+Pipe = 3 each; IADD: 3; FSIN: 4; GLD: 2.
	if got := len(c.Micro); got != 15 {
		t.Errorf("micro campaigns = %d, want 15", got)
	}
	// t-MxM: 2 modules x 3 kinds.
	if got := len(c.TMXM); got != 6 {
		t.Errorf("t-MxM campaigns = %d, want 6", got)
	}
	if len(c.DB.Entries) != 15 || len(c.DB.TMXM) != 6 {
		t.Errorf("DB entries %d/%d", len(c.DB.Entries), len(c.DB.TMXM))
	}
}

func TestAVFTableShape(t *testing.T) {
	c := smallCharacterization(t)
	rows := c.AVFTable()
	if len(rows) != 15 {
		t.Fatalf("AVF rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SDCSingle < 0 || r.SDCSingle > 1 || r.DUE < 0 || r.DUE > 1 {
			t.Errorf("row %s/%s out of range: %+v", r.Module, r.Op, r)
		}
	}
	// The FP32 unit must register SDCs for FFMA (its own instruction).
	found := false
	for _, r := range rows {
		if r.Module == faults.ModFP32 && r.Op == isa.OpFFMA && r.SDCSingle+r.SDCMulti > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no FP32/FFMA SDCs in AVF table")
	}
}

func TestRankModulesOrdering(t *testing.T) {
	c := smallCharacterization(t)
	ranked := c.RankModules()
	if len(ranked) != 6 {
		t.Fatalf("ranked %d modules", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].WeightedSDC < ranked[i].WeightedSDC {
			t.Error("ranking not sorted by weighted SDC")
		}
	}
	// §V-B: functional units (large, high AVF) should rank among the top
	// SDC sources.
	if ranked[0].Module == faults.ModSFUCtl {
		t.Errorf("tiny SFU controller ranked first: %+v", ranked[0])
	}
}

func TestEvaluateHPCUnderestimation(t *testing.T) {
	c := smallCharacterization(t)
	evals, err := EvaluateHPCCtx(context.Background(), c.DB, []*apps.Workload{apps.NewMxM(16), apps.NewHotspot(16, 6)},
		EvalConfig{Injections: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 2 {
		t.Fatalf("evals = %d", len(evals))
	}
	for i, e := range evals {
		t.Logf("%s: bitflip=%.2f syndrome=%.2f under=%.0f%%",
			e.Name, e.BitFlip.PVF(), e.Syndrome.PVF(), 100*e.Underestimation())
		if e.BitFlip.Tally.Injections != 80 {
			t.Errorf("%s: wrong injection count", e.Name)
		}
		// A result keeps its campaign but not the shared preparation, so
		// held results do not pin every app's checkpoint trace.
		for j, r := range []*swfi.Result{e.BitFlip, e.Syndrome} {
			c := r.Campaign
			model := []swfi.FaultModel{swfi.ModelBitFlip, swfi.ModelSyndrome}[j]
			if c.Prepared != nil || c.Workload == nil || c.Workload.Name != e.Name ||
				c.Model != model || c.Seed != uint64(3+2*i+j) {
				t.Errorf("%s %v: campaign kept Prepared %v, workload %v, model %v, seed %d",
					e.Name, model, c.Prepared != nil, c.Workload, c.Model, c.Seed)
			}
		}
	}
}

func TestEvaluateCNNAllModels(t *testing.T) {
	c := smallCharacterization(t)
	eval, err := EvaluateCNNCtx(context.Background(), c.DB, "LeNetLite", cnn.NewLeNetLite(), cnn.LeNetInput(0),
		swfi.LeNetCritical, EvalConfig{Injections: 60, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LeNet: flip=%.2f syn=%.2f tile=%.2f (tile crit share %.2f)",
		eval.BitFlip.PVF(), eval.Syndrome.PVF(), eval.Tile.PVF(), eval.Tile.CriticalShare())
	// §VI: the t-MxM model dominates the single-thread models on LeNET.
	if eval.Tile.PVF() <= eval.BitFlip.PVF() {
		t.Errorf("tile PVF %.2f not above bit-flip %.2f", eval.Tile.PVF(), eval.BitFlip.PVF())
	}
}

func TestCostModel(t *testing.T) {
	cm, err := MeasureCost(apps.NewMxM(16))
	if err != nil {
		t.Fatal(err)
	}
	if cm.RTLCyclesPerSecond <= 0 || cm.RTLMicroCycles == 0 {
		t.Fatalf("RTL throughput not measured: %+v", cm)
	}
	if cm.RTLAppInjectionSeconds() <= 0 {
		t.Error("no RTL extrapolation")
	}
	// The whole point: software injection is orders of magnitude cheaper.
	if cm.RTLAppInjectionSeconds() < cm.SWInjectionSeconds {
		t.Errorf("RTL (%.3fs) not slower than software (%.3fs)",
			cm.RTLAppInjectionSeconds(), cm.SWInjectionSeconds)
	}
	s := cm.CompareWith(48000, 1)
	if s == "" {
		t.Error("empty comparison")
	}
	t.Log(s)
}

// TestCompareWithKeepsSmallCosts: once the RTL side is credited with a
// replay speedup an injection costs milliseconds, and the §VI line must
// still show its digits, not "0.0 s/injection -> 0.1 hours".
func TestCompareWithKeepsSmallCosts(t *testing.T) {
	cm := &CostModel{RTLCyclesPerSecond: 1e6, RTLMicroCycles: 2_000, SWInjectionSeconds: 0.0042,
		AppThreadInstrs: 1_000_000, MicroThreadInstrs: 100_000}
	if got := cm.RTLAppInjectionSecondsWith(1_000); got >= 0.05 {
		t.Fatalf("credited RTL injection costs %g s, want below 0.05 s", got)
	}
	want := "RTL (1000.0x engine speedup): 2e-05 s/injection -> 0.000267 hours for 48000 injections; " +
		"software: 0.0042 s/injection -> 0.056 hours; speedup 0.00476x"
	if got := cm.CompareWith(48000, 1_000); got != want {
		t.Errorf("CompareWith:\n got %s\nwant %s", got, want)
	}
}

func TestEstimateFIT(t *testing.T) {
	c := smallCharacterization(t)
	ests := c.EstimateFIT(1e-4)
	if len(ests) != 6 {
		t.Fatalf("estimates for %d modules", len(ests))
	}
	for i := 1; i < len(ests); i++ {
		if ests[i-1].SDCFIT < ests[i].SDCFIT {
			t.Error("FIT estimates not sorted")
		}
	}
	for _, e := range ests {
		if e.SDCFIT < 0 || e.DUEFIT < 0 {
			t.Errorf("negative FIT: %+v", e)
		}
		// FIT scales with the raw rate.
		if e.SDCFIT > 1e-4*float64(e.FFs) {
			t.Errorf("FIT exceeds the all-faults bound: %+v", e)
		}
	}
	// Doubling the raw rate doubles every estimate.
	ests2 := c.EstimateFIT(2e-4)
	for i := range ests {
		if ests2[i].SDCFIT != 2*ests[i].SDCFIT {
			t.Error("FIT not linear in the raw rate")
		}
	}
}
