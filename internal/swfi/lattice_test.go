package swfi

import (
	"context"
	"sync"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
)

// TestModeLatticeBitIdentical: the engine yields the oracle's tally and
// per-injection records on a workload whose host only copies between
// launches (Hotspot) and one whose host reads the arena to pick its next
// launch (Quicksort). Every injection is simulated — the engine reports no
// pruned fault.
func TestModeLatticeBitIdentical(t *testing.T) {
	for _, w := range []*apps.Workload{apps.NewHotspot(16, 4), apps.NewQuicksort(128)} {
		t.Run(w.Name, func(t *testing.T) {
			res := checkHPC(t, Campaign{Workload: w, Model: ModelBitFlip, Injections: 120, Seed: 29, RecordInjections: true})
			if res.PrunedFaults != 0 {
				t.Errorf("engine reports %d pruned faults, want 0", res.PrunedFaults)
			}
		})
	}
}

// TestModeLatticeSyndrome: the syndrome model's corruption draws — which
// depend on the operand magnitude observed at fire time — are the same
// under fast-forward as in the oracle's full replays.
func TestModeLatticeSyndrome(t *testing.T) {
	checkHPC(t, Campaign{
		Workload: apps.NewHotspot(16, 4), Model: ModelSyndrome, DB: testDB(t),
		Injections: 150, Seed: 31, RecordInjections: true,
	})
}

// TestCNNModeLattice: a CNN instruction-model campaign on a shared
// preparation equals the oracle (tally, critical-SDC count).
func TestCNNModeLattice(t *testing.T) {
	net := cnn.NewLeNetLite()
	input := cnn.LeNetInput(0)
	prep, err := PrepareCNN(net, input)
	if err != nil {
		t.Fatal(err)
	}
	res := checkCNN(t, CNNCampaign{
		Net: net, Input: input, Model: CNNBitFlip,
		Injections: 80, Seed: 37, Critical: LeNetCritical, Prepared: prep,
	})
	if res.PrunedFaults != 0 {
		t.Errorf("engine reports %d pruned faults, want 0", res.PrunedFaults)
	}
}

// TestPaperWorkloadsMatchOracle holds the default engine to the oracle on
// all 8 paper workloads, four workers each: tallies, injection records and
// critical SDCs, and the instruction total.
func TestPaperWorkloadsMatchOracle(t *testing.T) {
	hpc := func(w *apps.Workload) func(t *testing.T) {
		return func(t *testing.T) {
			checkHPC(t, Campaign{Workload: w, Model: ModelBitFlip, Injections: 60, Seed: 53, Workers: 4, RecordInjections: true})
		}
	}
	cnnCase := func(net *cnn.Network, input []float32, critical func(a, b []float32) bool, n int) func(t *testing.T) {
		return func(t *testing.T) {
			checkCNN(t, CNNCampaign{Net: net, Input: input, Model: CNNBitFlip, Injections: n, Seed: 53, Workers: 4, Critical: critical})
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"MxM", hpc(apps.NewMxM(16))},
		{"LavaMD", hpc(apps.NewLava(2, 32))},
		{"Quicksort", hpc(apps.NewQuicksort(128))},
		{"Hotspot", hpc(apps.NewHotspot(16, 4))},
		{"LUD", hpc(apps.NewLUD(16))},
		{"Gaussian", hpc(apps.NewGaussian(16))},
		{"LeNetLite", cnnCase(cnn.NewLeNetLite(), cnn.LeNetInput(0), LeNetCritical, 30)},
		{"YoloLite", cnnCase(cnn.NewYoloLite(), cnn.YoloInput(0), YoloCritical, 12)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tc.run(t)
		})
	}
}

// TestNoPruneIsInert: the deprecated NoPrune field changes nothing — the
// tally, the per-injection records and the whole engine accounting equal
// the default's, for an HPC and a CNN campaign.
func TestNoPruneIsInert(t *testing.T) {
	hpc := Campaign{
		Workload: apps.NewHotspot(16, 4), Model: ModelBitFlip,
		Injections: 60, Seed: 43, RecordInjections: true,
	}
	def, err := RunCtx(context.Background(), hpc)
	if err != nil {
		t.Fatal(err)
	}
	hpc.NoPrune = true
	set, err := RunCtx(context.Background(), hpc)
	if err != nil {
		t.Fatal(err)
	}
	assertCampaignEqual(t, set, def)
	if set.Counters != def.Counters {
		t.Errorf("HPC: counters %+v with NoPrune, %+v without", set.Counters, def.Counters)
	}

	cnnC := CNNCampaign{
		Net: cnn.NewLeNetLite(), Input: cnn.LeNetInput(0), Model: CNNBitFlip,
		Injections: 40, Seed: 47, Critical: LeNetCritical,
	}
	cdef, err := RunCNNCtx(context.Background(), cnnC)
	if err != nil {
		t.Fatal(err)
	}
	cnnC.NoPrune = true
	cset, err := RunCNNCtx(context.Background(), cnnC)
	if err != nil {
		t.Fatal(err)
	}
	if cset.Tally != cdef.Tally || cset.CriticalSDC != cdef.CriticalSDC || cset.Counters != cdef.Counters {
		t.Errorf("CNN: tally %+v crit %d counters %+v with NoPrune, %+v / %d / %+v without",
			cset.Tally, cset.CriticalSDC, cset.Counters, cdef.Tally, cdef.CriticalSDC, cdef.Counters)
	}
}

// TestSWProgressThrottled mirrors internal/rtlfi's progress-throttle test
// for the software campaign: ~1/1000 granularity with a guaranteed final
// (total, total) call. The kernel's own throttle test is in
// internal/campaign.
func TestSWProgressThrottled(t *testing.T) {
	const n = 5000
	var (
		mu       sync.Mutex
		calls    int
		sawFinal bool
	)
	check := func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if total != n {
			t.Errorf("progress total = %d, want %d", total, n)
		}
		if done < 1 || done > total {
			t.Errorf("progress done = %d outside [1, %d]", done, total)
		}
		if done == total {
			sawFinal = true
		}
	}
	assertThrottled := func(t *testing.T, completed int) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if completed != n {
			t.Fatalf("campaign completed %d injections, want %d", completed, n)
		}
		if !sawFinal {
			t.Error("final (total, total) progress call never arrived")
		}
		if max := n/(n/1000) + 10; calls > max {
			t.Errorf("progress fired %d times for %d injections, want <= %d (throttled)", calls, n, max)
		}
		if calls == 0 {
			t.Error("progress never fired")
		}
	}

	t.Run("Campaign", func(t *testing.T) {
		res, err := RunCtx(context.Background(), Campaign{
			Workload: apps.NewMxM(8), Model: ModelBitFlip,
			Injections: n, Seed: 41, Progress: check,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertThrottled(t, res.Tally.Injections)
	})
}
