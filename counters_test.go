package gpufi

import (
	"context"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtlfi"
	"gpufi/internal/swfi"
)

// counter is one named engine counter of a spec's run.
type counter struct {
	name string
	n    uint64
}

func rtlCounters(c rtlfi.Counters) []counter {
	return []counter{
		{"SimCycles", c.SimCycles},
		{"SkippedCycles", c.SkippedCycles},
		{"PrunedFaults", c.PrunedFaults},
		{"VectorFaults", c.VectorFaults},
		{"Marches", c.Marches},
		{"Injections", uint64(c.Injections)},
	}
}

func swCounters(c swfi.Counters) []counter {
	return []counter{
		{"SimInstrs", c.SimInstrs},
		{"SkippedInstrs", c.SkippedInstrs},
	}
}

// TestEngineCounters pins the simulated work of both engines on four small
// specs, exactly, at two worker counts. The engines count what they
// simulate and what they provably skip, and both counts are deterministic,
// so any change to either is a change to the engine: a lost accelerator
// layer shows as more simulated work, a broken one as a moved sim + skipped
// sum. A PR that moves a counter on purpose updates the table below and
// gives the reason in CHANGES.md.
func TestEngineCounters(t *testing.T) {
	db, err := LoadDB("data/syndromes.json")
	if err != nil {
		t.Fatal(err)
	}
	specs := []struct {
		name string
		run  func(t *testing.T, workers int) []counter
		want []counter
	}{
		{
			name: "Characterize FADD,FSIN,GLD,BRA x S,M,L + t-MxM, 200 faults, seed 2021",
			run: func(t *testing.T, workers int) []counter {
				c, err := CharacterizeCtx(context.Background(), CharacterizeConfig{
					FaultsPerCampaign: 200, Seed: 2021, Workers: workers,
					Ops: []isa.Opcode{isa.OpFADD, isa.OpFSIN, isa.OpGLD, isa.OpBRA},
				})
				if err != nil {
					t.Fatal(err)
				}
				return rtlCounters(c.Telemetry())
			},
			want: rtlCounters(rtlfi.Counters{
				SimCycles: 106_794, SkippedCycles: 4_613_888, PrunedFaults: 7_299,
				Injections: 7_800,
			}),
		},
		{
			name: "RunMicro FSIN/M/Pipeline, 20 000 faults, seed 98",
			run: func(t *testing.T, workers int) []counter {
				res, err := rtlfi.RunMicroCtx(context.Background(), rtlfi.Spec{
					Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModPipe,
					NumFaults: 20_000, Seed: 98, Workers: workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				return rtlCounters(res.Counters)
			},
			want: rtlCounters(rtlfi.Counters{
				SimCycles: 24_577, SkippedCycles: 8_921_549, PrunedFaults: 18_669,
				VectorFaults: 1_260, Marches: 20, Injections: 20_000,
			}),
		},
		{
			name: "EvaluateHPC suite, 20 injections, seed 7",
			run: func(t *testing.T, workers int) []counter {
				evals, err := EvaluateHPCCtx(context.Background(), db, HPCSuite(), EvalConfig{Injections: 20, Seed: 7, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var c swfi.Counters
				for _, e := range evals {
					c.Merge(e.BitFlip.Counters)
					c.Merge(e.Syndrome.Counters)
				}
				return swCounters(c)
			},
			want: swCounters(swfi.Counters{SimInstrs: 22_793_823, SkippedInstrs: 270_903_597}),
		},
		{
			name: "EvaluateCNN LeNetLite 20 + YoloLite 5 injections, seed 11",
			run: func(t *testing.T, workers int) []counter {
				var c swfi.Counters
				for _, n := range []struct {
					net   *Network
					input []float32
					crit  func(a, b []float32) bool
					inj   int
				}{
					{NewLeNetLite(), LeNetInput(0), LeNetCritical, 20},
					{NewYoloLite(), YoloInput(0), YoloCritical, 5},
				} {
					ev, err := EvaluateCNNCtx(context.Background(), db, n.net.Name, n.net, n.input, n.crit,
						EvalConfig{Injections: n.inj, Seed: 11, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					c.Merge(ev.BitFlip.Counters)
					c.Merge(ev.Syndrome.Counters)
					c.Merge(ev.Tile.Counters)
				}
				return swCounters(c)
			},
			want: swCounters(swfi.Counters{SimInstrs: 1_252_408, SkippedInstrs: 42_757_972}),
		},
	}
	for _, spec := range specs {
		for _, workers := range []int{1, 2} {
			got := spec.run(t, workers)
			for i, c := range got {
				if want := spec.want[i]; c.n != want.n {
					t.Errorf("%s, Workers %d: %s = %d, want %d", spec.name, workers, c.name, c.n, want.n)
				}
			}
		}
	}
	if t.Failed() {
		t.Error("if the change is intended, update the table in counters_test.go and give the reason in CHANGES.md")
	}
}
