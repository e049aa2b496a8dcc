package swfi

import (
	"sync"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
)

// swLatticeModes is the software engine's mode lattice: the default
// checkpoint fast-forward with block replay against the naive engine that
// replays every injection in full with hooks armed throughout.
var swLatticeModes = []struct {
	name string
	noFF bool
}{
	{"FastForward", false},
	{"FullReplay", true},
}

// TestModeLatticeBitIdentical: both modes yield the same tally and
// per-injection records on a workload whose host only copies between
// launches (Hotspot) and one whose host reads the arena to pick its next
// launch (Quicksort). Every injection is simulated — the engine reports no
// pruned fault in either mode.
func TestModeLatticeBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		w *apps.Workload
		n int
	}{
		{apps.NewHotspot(16, 4), 120},
		{apps.NewQuicksort(128), 120},
	} {
		t.Run(tc.w.Name, func(t *testing.T) {
			var baseline *Result
			for _, m := range swLatticeModes {
				res, err := Run(Campaign{
					Workload: tc.w, Model: ModelBitFlip,
					Injections: tc.n, Seed: 29,
					NoFastForward:    m.noFF,
					RecordInjections: true,
				})
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if res.PrunedFaults != 0 {
					t.Errorf("%s: engine reports %d pruned faults, want 0", m.name, res.PrunedFaults)
				}
				if baseline == nil {
					baseline = res
					if res.SimInstrs == 0 || res.SkippedInstrs == 0 {
						t.Errorf("%s: sim=%d skipped=%d, want every injection simulated from a restored prefix",
							m.name, res.SimInstrs, res.SkippedInstrs)
					}
					continue
				}
				if res.Tally != baseline.Tally {
					t.Errorf("%s: tally %+v, baseline %+v", m.name, res.Tally, baseline.Tally)
				}
				for i := range res.Records {
					if res.Records[i] != baseline.Records[i] {
						t.Fatalf("%s: record %d = %+v, baseline %+v", m.name, i, res.Records[i], baseline.Records[i])
					}
				}
				if m.noFF && res.SimInstrs != 0 {
					t.Errorf("%s: full replay reported accelerator telemetry sim=%d", m.name, res.SimInstrs)
				}
			}
		})
	}
}

// TestModeLatticeSyndrome: the syndrome model's corruption draws — which
// depend on the operand magnitude observed at fire time — are the same
// under fast-forward as under full replay.
func TestModeLatticeSyndrome(t *testing.T) {
	db := testDB(t)
	base := Campaign{
		Workload: apps.NewHotspot(16, 4), Model: ModelSyndrome, DB: db,
		Injections: 150, Seed: 31, RecordInjections: true,
	}
	ff, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	full := base
	full.NoFastForward = true
	fullRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Tally != fullRes.Tally {
		t.Fatalf("tally diverged: fast-forward %+v, full %+v", ff.Tally, fullRes.Tally)
	}
	for i := range fullRes.Records {
		if ff.Records[i] != fullRes.Records[i] {
			t.Fatalf("record %d diverged: fast-forward %+v, full %+v", i, ff.Records[i], fullRes.Records[i])
		}
	}
}

// TestCNNModeLattice: the CNN instruction-model lattice is bit-identical
// across both modes (tally, critical-SDC count).
func TestCNNModeLattice(t *testing.T) {
	net := cnn.NewLeNetLite()
	input := cnn.LeNetInput(0)
	prep, err := PrepareCNN(net, input)
	if err != nil {
		t.Fatal(err)
	}
	var baseline *CNNResult
	for _, m := range swLatticeModes {
		c := CNNCampaign{
			Net: net, Input: input, Model: CNNBitFlip,
			Injections: 80, Seed: 37, Critical: LeNetCritical,
			NoFastForward: m.noFF,
		}
		if !m.noFF {
			c.Prepared = prep
		}
		res, err := RunCNN(c)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if res.PrunedFaults != 0 {
			t.Errorf("%s: engine reports %d pruned faults, want 0", m.name, res.PrunedFaults)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if res.Tally != baseline.Tally || res.CriticalSDC != baseline.CriticalSDC {
			t.Errorf("%s: tally %+v crit %d, baseline %+v crit %d",
				m.name, res.Tally, res.CriticalSDC, baseline.Tally, baseline.CriticalSDC)
		}
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
	def, err := Run(hpc)
	if err != nil {
		t.Fatal(err)
	}
	hpc.NoPrune = true
	set, err := Run(hpc)
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
	cdef, err := RunCNN(cnnC)
	if err != nil {
		t.Fatal(err)
	}
	cnnC.NoPrune = true
	cset, err := RunCNN(cnnC)
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
		res, err := Run(Campaign{
			Workload: apps.NewMxM(8), Model: ModelBitFlip,
			Injections: n, Seed: 41, Progress: check,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertThrottled(t, res.Tally.Injections)
	})
}
