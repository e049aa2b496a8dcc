package rtlfi

import (
	"reflect"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/rtl"
)

// TestOneRunPreparation: prepare runs each input draw's golden execution
// once, traced for liveness and checkpointed together. For every input
// draw of every characterised micro-benchmark and of t-MxM, that one run
// must give what two separate runs give: a plain traced Run (the
// liveness trace, the golden image and length) and an untraced
// RunCheckpointed replay at the interval the draw's own length picks
// (the snapshots). The snapshots and the liveness traces are compared with
// reflect.DeepEqual, and the traces also by DeadAt over every bit × cycle
// of the module. That sweep is ~90 % of the test's time and ten times
// slower under the race detector, which has nothing to find in it, so a
// race build leaves it out (race_test.go); CI runs it in the exact-pins
// step.
func TestOneRunPreparation(t *testing.T) {
	plans := map[string]func() (*plan, error){
		"t-MxM": TMXMSpec{Module: faults.ModPipe, Kind: mxm.TileRandom, Seed: 2021}.plan,
	}
	for _, op := range isa.CharacterizedOpcodes() {
		plans[op.String()] = Spec{Op: op, Range: faults.RangeMedium, Module: faults.ModPipe, Seed: 2021}.plan
	}
	for name, mk := range plans {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range p.draws {
				checkTwoRunPreparation(t, p, i, d)
			}
		})
	}
}

// raceDetector is set by race_test.go in a race build.
var raceDetector bool

func checkTwoRunPreparation(t *testing.T, p *plan, i int, d *inputDraw) {
	t.Helper()
	m := rtl.New()
	live := rtl.NewLiveness(p.module)
	m.TraceLiveness(live)
	golden := append([]uint32(nil), d.global...)
	if err := m.Run(p.prog, 1, p.block, golden, p.sharedWords, p.goldenBudget); err != nil {
		t.Fatalf("draw %d: traced golden run: %v", i, err)
	}
	m.TraceLiveness(nil)
	if m.Cycles() != d.goldenCycles || !reflect.DeepEqual(golden, d.golden) {
		t.Fatalf("draw %d: golden run of %d cycles, prepared %d; images equal %v",
			i, m.Cycles(), d.goldenCycles, reflect.DeepEqual(golden, d.golden))
	}
	if every := max(d.goldenCycles/checkpointsPerRun, 1); every != d.ckpts.every {
		t.Errorf("draw %d: interval %d, the draw's own length picks %d", i, d.ckpts.every, every)
	}
	// The replay runs at the same budget: a snapshot records its run's
	// cycle budget, which every restore (RunFromPruned, March) replaces.
	var snaps []*rtl.Snapshot
	if err := m.RunCheckpointed(p.prog, 1, p.block, append([]uint32(nil), d.global...), p.sharedWords,
		p.goldenBudget, d.ckpts.every, func(s *rtl.Snapshot) { snaps = append(snaps, s) }); err != nil {
		t.Fatalf("draw %d: checkpoint replay: %v", i, err)
	}
	if len(snaps) != len(d.ckpts.snaps) {
		t.Fatalf("draw %d: replay captured %d checkpoints, the one run %d", i, len(snaps), len(d.ckpts.snaps))
	}
	for k := range snaps {
		if !reflect.DeepEqual(snaps[k], d.ckpts.snaps[k]) {
			t.Fatalf("draw %d: checkpoint %d (cycle %d) differs from the replay's", i, k, snaps[k].Cycle())
		}
	}
	if !reflect.DeepEqual(live, d.live) {
		t.Fatalf("draw %d: liveness trace differs from a separate traced run's", i)
	}
	if raceDetector {
		return
	}
	for bit := range rtl.ModuleBits(p.module) {
		for c := range live.Cycles() {
			if got, want := d.live.DeadAt(p.module, bit, c), live.DeadAt(p.module, bit, c); got != want {
				t.Fatalf("draw %d: %v bit %d cycle %d: DeadAt %v, separate traced run %v", i, p.module, bit, c, got, want)
			}
		}
	}
}

// TestRecycledTracesEqualFresh: a campaign releases its liveness traces
// to rtl's pool, and the next preparation of the module reuses their
// span slices. With the pool stocked by every program's traces, a
// preparation must still give what TestOneRunPreparation requires of
// it — a trace deep-equal to a separate traced run's — so that test's
// verdict does not depend on what ran before it.
func TestRecycledTracesEqualFresh(t *testing.T) {
	plans := []func() (*plan, error){
		TMXMSpec{Module: faults.ModPipe, Kind: mxm.TileRandom, Seed: 2021}.plan,
	}
	for _, op := range isa.CharacterizedOpcodes() {
		plans = append(plans, Spec{Op: op, Range: faults.RangeMedium, Module: faults.ModPipe, Seed: 2021}.plan)
	}
	for range 2 {
		for _, mk := range plans {
			p, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			p.releaseTraces()
		}
	}
	for _, mk := range plans {
		p, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range p.draws {
			checkTwoRunPreparation(t, p, i, d)
		}
		p.releaseTraces()
	}
}
