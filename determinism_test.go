package gpufi

import (
	"math"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/replay"
	"gpufi/internal/swfi"
)

// execution runs one of the 8 paper workloads (6 HPC apps + 2 CNNs) on an
// arbitrary replay.Runner, normalising the CNN float outputs to words so
// all workloads compare the same way.
type execution func(rt replay.Runner) ([]uint32, error)

func hpcExecution(w *apps.Workload) execution {
	return func(rt replay.Runner) ([]uint32, error) { return w.ExecuteWith(rt) }
}

func cnnExecution(net *cnn.Network, input []float32) execution {
	return func(rt replay.Runner) ([]uint32, error) {
		out, err := net.RunWith(rt, input, nil)
		if err != nil {
			return nil, err
		}
		words := make([]uint32, len(out))
		for i, v := range out {
			words[i] = math.Float32bits(v)
		}
		return words, nil
	}
}

// TestExecutionModesAgree is the emulator determinism property test over
// all 8 paper workloads: the uninstrumented run, the hook-armed run (inert
// Post hook on every instruction, plus a countdown-armed variant) and a
// snapshot/restore-resumed run from every recorded checkpoint must produce
// identical outputs and Result counters.
func TestExecutionModesAgree(t *testing.T) {
	cases := []struct {
		name string
		exec execution
	}{
		{"MxM", hpcExecution(apps.NewMxM(16))},
		{"LavaMD", hpcExecution(apps.NewLava(2, 32))},
		{"Quicksort", hpcExecution(apps.NewQuicksort(128))},
		{"Hotspot", hpcExecution(apps.NewHotspot(16, 4))},
		{"LUD", hpcExecution(apps.NewLUD(16))},
		{"Gaussian", hpcExecution(apps.NewGaussian(16))},
		{"LeNetLite", cnnExecution(cnn.NewLeNetLite(), cnn.LeNetInput(0))},
		{"YoloLite", cnnExecution(cnn.NewYoloLite(), cnn.YoloInput(0))},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// Uninstrumented reference run.
			plain := &replay.Plain{}
			want, err := tc.exec(plain)
			if err != nil {
				t.Fatal(err)
			}
			total := plain.Res.DynThreadInstrs

			// Hook-armed run: an inert Post hook must change nothing and
			// must observe exactly the reference per-opcode counts.
			var hooked swfi.Counts
			armed := &replay.Plain{Hooks: emu.Hooks{Post: func(ev *emu.Event) {
				hooked[ev.Instr.Op] += uint64(ev.ActiveCount())
			}}}
			out, err := tc.exec(armed)
			if err != nil {
				t.Fatal(err)
			}
			assertWordsEqual(t, "hook-armed", want, out)
			if armed.Res != plain.Res {
				t.Fatalf("hook-armed Result = %+v, want %+v", armed.Res, plain.Res)
			}
			if hooked != swfi.Counts(plain.Res.PerOpcode) {
				t.Fatal("hooked per-opcode counts diverge from emulator counters")
			}

			// Recorded run: checkpoints plus write-sets, still identical.
			rec := replay.NewRecorder(total/7+1, func(op isa.Opcode) bool { return swfi.Injectable(op) })
			out, err = tc.exec(rec)
			if err != nil {
				t.Fatal(err)
			}
			assertWordsEqual(t, "recorded", want, out)
			tr := rec.Finish()
			if tr.Instrs != total {
				t.Fatalf("trace counts %d instructions, reference %d", tr.Instrs, total)
			}
			if len(tr.Ckpts) == 0 {
				t.Fatal("no checkpoints recorded")
			}

			// Snapshot/restore: resuming from every checkpoint reproduces
			// the run, and skipped+live always covers the whole execution.
			pool := &replay.Pool{}
			for ck := range tr.Ckpts {
				p := replay.NewPlayerAt(tr, ck, pool)
				out, err = tc.exec(p)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", ck, err)
				}
				assertWordsEqual(t, "resumed", want, out)
				if p.Skipped+p.Live.DynThreadInstrs != total {
					t.Fatalf("checkpoint %d: skipped %d + live %d != total %d",
						ck, p.Skipped, p.Live.DynThreadInstrs, total)
				}
				if p.Skipped == 0 {
					t.Fatalf("checkpoint %d skipped nothing", ck)
				}
			}

			// Countdown-armed replay: the player keeps hooks inert until
			// just before a mid-run target, then an inert counting hook
			// fires; output must still match and the primed counter must
			// hand over exactly where the hook picks up.
			half := tr.Count / 2
			var primed uint64
			fired := false
			pl := replay.NewPlayer(tr, half, emu.Hooks{Post: func(ev *emu.Event) {
				if !fired && swfi.Injectable(ev.Instr.Op) {
					primed += uint64(ev.ActiveCount())
					if primed > half {
						fired = true
					}
				}
			}}, func(done uint64) { primed = done }, func() bool { return fired }, pool)
			out, err = tc.exec(pl)
			if err != nil {
				t.Fatal(err)
			}
			assertWordsEqual(t, "countdown", want, out)
			if !fired {
				t.Fatal("countdown player never reached its target instruction")
			}
		})
	}
}

// TestCampaignModeLatticeDeterministic is the campaign-level determinism
// property over all 8 paper workloads: the default engine (checkpoint
// fast-forward) yields byte-identical tallies and injection records
// across worker counts, against the plain full-replay path, and with the
// pre-decoded interpreter fast path forced off (Tier 0 only). The
// deprecated NoCollapse and NoPrune fields are inert: setting them changes
// neither the results nor the engine counters.
func TestCampaignModeLatticeDeterministic(t *testing.T) {
	type arm struct {
		name                                  string
		workers                               int
		noPrune, noCollapse, noFF, noFastPath bool
	}
	arms := []arm{
		{"default/w1", 1, false, false, false, false},
		{"default/w4", 4, false, false, false, false},
		{"no-collapse", 4, false, true, false, false}, // inert: must equal the default, counters included
		{"no-prune", 4, true, false, false, false},    // likewise
		{"full-replay", 4, false, false, true, false},
		{"no-fast-path", 4, false, false, false, true},
	}
	type outcome struct {
		tally    faults.Tally
		records  []swfi.InjectionRecord
		crit     int
		counters swfi.Counters
	}

	hpcCase := func(w *apps.Workload, n int) func(t *testing.T, a arm) outcome {
		return func(t *testing.T, a arm) outcome {
			res, err := RunCampaign(Campaign{
				Workload: w, Model: ModelBitFlip, Injections: n, Seed: 53,
				Workers: a.workers, RecordInjections: true,
				NoPrune: a.noPrune, NoCollapse: a.noCollapse, NoFastForward: a.noFF,
				NoFastPath: a.noFastPath,
			})
			if err != nil {
				t.Fatal(err)
			}
			return outcome{res.Tally, res.Records, 0, res.Counters}
		}
	}
	cnnCase := func(net *cnn.Network, input []float32, critical func(a, b []float32) bool, n int) func(t *testing.T, a arm) outcome {
		return func(t *testing.T, a arm) outcome {
			res, err := RunCNNCampaign(CNNCampaign{
				Net: net, Input: input, Model: swfi.CNNBitFlip,
				Injections: n, Seed: 53, Workers: a.workers, Critical: critical,
				NoPrune: a.noPrune, NoCollapse: a.noCollapse, NoFastForward: a.noFF,
				NoFastPath: a.noFastPath,
			})
			if err != nil {
				t.Fatal(err)
			}
			return outcome{res.Tally, nil, res.CriticalSDC, res.Counters}
		}
	}

	cases := []struct {
		name string
		run  func(t *testing.T, a arm) outcome
	}{
		{"MxM", hpcCase(apps.NewMxM(16), 60)},
		{"LavaMD", hpcCase(apps.NewLava(2, 32), 60)},
		{"Quicksort", hpcCase(apps.NewQuicksort(128), 60)},
		{"Hotspot", hpcCase(apps.NewHotspot(16, 4), 60)},
		{"LUD", hpcCase(apps.NewLUD(16), 60)},
		{"Gaussian", hpcCase(apps.NewGaussian(16), 60)},
		{"LeNetLite", cnnCase(cnn.NewLeNetLite(), cnn.LeNetInput(0), swfi.LeNetCritical, 30)},
		{"YoloLite", cnnCase(cnn.NewYoloLite(), cnn.YoloInput(0), swfi.YoloCritical, 12)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := tc.run(t, arms[0])
			for _, a := range arms[1:] {
				got := tc.run(t, a)
				if got.tally != base.tally {
					t.Errorf("%s: tally %+v, baseline %+v", a.name, got.tally, base.tally)
				}
				if got.crit != base.crit {
					t.Errorf("%s: critical SDCs %d, baseline %d", a.name, got.crit, base.crit)
				}
				for i := range base.records {
					if got.records[i] != base.records[i] {
						t.Fatalf("%s: record %d = %+v, baseline %+v", a.name, i, got.records[i], base.records[i])
					}
				}
				// Engine accounting is schedule-deterministic: neither the
				// worker count nor an inert field may move a counter.
				if !a.noFF && !a.noFastPath && got.counters != base.counters {
					t.Errorf("%s: counters %+v, baseline %+v", a.name, got.counters, base.counters)
				}
			}
		})
	}
}

func assertWordsEqual(t *testing.T, mode string, want, got []uint32) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: output %d words, want %d", mode, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: output word %d = %#x, want %#x", mode, i, got[i], want[i])
		}
	}
}
