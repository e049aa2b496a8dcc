package swfi

import (
	"context"
	"reflect"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
)

// assertCampaignEqual compares everything in two HPC campaign results that
// the fast-forward optimisation promises to preserve bit-identically. The
// Campaign field (which carries the NoFastForward flag) and the
// SimInstrs/SkippedInstrs meta-counters are the only fields allowed to
// differ.
func assertCampaignEqual(t *testing.T, ff, full *Result) {
	t.Helper()
	if ff.Tally != full.Tally {
		t.Fatalf("tally: fast-forward %+v, full replay %+v", ff.Tally, full.Tally)
	}
	if ff.Profile != full.Profile {
		t.Fatal("opcode profiles differ")
	}
	if ff.Injectable != full.Injectable {
		t.Fatalf("injectable totals: %d vs %d", ff.Injectable, full.Injectable)
	}
	if !reflect.DeepEqual(ff.Records, full.Records) {
		t.Fatal("injection records differ")
	}
	if ff.PVF() != full.PVF() {
		t.Fatalf("PVF: %v vs %v", ff.PVF(), full.PVF())
	}
	ffLo, ffHi := ff.PVFCI()
	fuLo, fuHi := full.PVFCI()
	if ffLo != fuLo || ffHi != fuHi {
		t.Fatalf("PVF CI: [%v,%v] vs [%v,%v]", ffLo, ffHi, fuLo, fuHi)
	}
}

// assertTelemetry checks the fast-forward accounting: the optimised run
// must actually skip work, and the full-replay run must report none.
func assertTelemetry(t *testing.T, name string, ffSim, ffSkipped, fullSim, fullSkipped uint64) {
	t.Helper()
	if ffSkipped == 0 {
		t.Errorf("%s: fast-forward skipped no instructions", name)
	}
	if fullSim != 0 || fullSkipped != 0 {
		t.Errorf("%s: full replay reported sim=%d skipped=%d, want 0/0", name, fullSim, fullSkipped)
	}
}

// TestHPCFastForwardBitIdentical is the software-campaign checkpoint
// optimisation's anchor regression: fast-forwarded campaigns must be
// byte-identical to full replay — tallies, per-injection records, PVF and
// its confidence interval.
func TestHPCFastForwardBitIdentical(t *testing.T) {
	campaigns := []Campaign{
		{Workload: apps.NewMxM(16), Model: ModelBitFlip,
			Injections: 80, Seed: 311, Workers: 3, RecordInjections: true},
		{Workload: apps.NewGaussian(16), Model: ModelDoubleBitFlip,
			Injections: 60, Seed: 312, Workers: 2, RecordInjections: true},
		// Quicksort's host reads the arena to pick its next launch, so a
		// fault can change the launch sequence block replay must match.
		{Workload: apps.NewQuicksort(128), Model: ModelBitFlip,
			Injections: 40, Seed: 314, Workers: 2, RecordInjections: true},
	}
	for _, c := range campaigns {
		ff, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		c.NoFastForward = true
		full, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		assertCampaignEqual(t, ff, full)
		assertTelemetry(t, c.Workload.Name, ff.SimInstrs, ff.SkippedInstrs, full.SimInstrs, full.SkippedInstrs)
	}
}

// TestHPCSyndromeFastForwardBitIdentical covers the syndrome model, whose
// injector additionally reads source operands out of replayed events for
// magnitude-range selection.
func TestHPCSyndromeFastForwardBitIdentical(t *testing.T) {
	db := testDB(t)
	c := Campaign{
		Workload: apps.NewHotspot(16, 4), Model: ModelSyndrome, DB: db,
		Injections: 60, Seed: 313, Workers: 2, RecordInjections: true,
	}
	ff, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	c.NoFastForward = true
	full, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	assertCampaignEqual(t, ff, full)
	assertTelemetry(t, "hotspot/syndrome", ff.SimInstrs, ff.SkippedInstrs, full.SimInstrs, full.SkippedInstrs)
}

// TestPreparedSharingBitIdentical: several campaigns sharing one
// PrepareWorkload must match campaigns that each prepare on their own.
func TestPreparedSharingBitIdentical(t *testing.T) {
	w := apps.NewMxM(16)
	prep, err := PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{5, 99} {
		c := Campaign{Workload: w, Model: ModelBitFlip, Injections: 40, Seed: seed}
		own, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		c.Prepared = prep
		shared, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		assertCampaignEqual(t, shared, own)
	}
}

// TestCNNFastForwardBitIdentical mirrors the regression for the CNN
// instruction-level and t-MxM tile campaign paths.
func TestCNNFastForwardBitIdentical(t *testing.T) {
	net := cnn.NewLeNetLite()
	input := cnn.LeNetInput(0)

	flip := CNNCampaign{
		Net: net, Input: input, Model: CNNBitFlip,
		Injections: 80, Seed: 411, Workers: 3, Critical: LeNetCritical,
	}
	ff, err := RunCNN(flip)
	if err != nil {
		t.Fatal(err)
	}
	flip.NoFastForward = true
	full, err := RunCNN(flip)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Tally != full.Tally {
		t.Fatalf("bit-flip tally: fast-forward %+v, full replay %+v", ff.Tally, full.Tally)
	}
	if ff.CriticalSDC != full.CriticalSDC {
		t.Fatalf("critical SDCs: %d vs %d", ff.CriticalSDC, full.CriticalSDC)
	}
	if ff.Profile != full.Profile {
		t.Fatal("profiles differ")
	}
	if ff.PVF() != full.PVF() || ff.CriticalShare() != full.CriticalShare() {
		t.Fatal("derived metrics differ")
	}
	assertTelemetry(t, "lenet/bitflip", ff.SimInstrs, ff.SkippedInstrs, full.SimInstrs, full.SkippedInstrs)

	tile := CNNCampaign{
		Net: net, Input: input, Model: CNNTile, DB: testDB(t),
		Injections: 60, Seed: 412, Workers: 2, Critical: LeNetCritical,
	}
	tff, err := RunCNN(tile)
	if err != nil {
		t.Fatal(err)
	}
	tile.NoFastForward = true
	tfull, err := RunCNN(tile)
	if err != nil {
		t.Fatal(err)
	}
	if tff.Tally != tfull.Tally {
		t.Fatalf("tile tally: fast-forward %+v, full replay %+v", tff.Tally, tfull.Tally)
	}
	if tff.CriticalSDC != tfull.CriticalSDC {
		t.Fatalf("tile critical SDCs: %d vs %d", tff.CriticalSDC, tfull.CriticalSDC)
	}
	assertTelemetry(t, "lenet/tile", tff.SimInstrs, tff.SkippedInstrs, tfull.SimInstrs, tfull.SkippedInstrs)
}

// TestCancelAfterCompletionKeepsResult: cancellation landing between the
// last injection and the post-wait context check must not discard a
// campaign in which every injection ran.
func TestCancelAfterCompletionKeepsResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 30
	res, err := RunCtx(ctx, Campaign{
		Workload: apps.NewMxM(16), Model: ModelBitFlip,
		Injections: n, Seed: 3,
		Progress: func(done, total int) {
			if done == total {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatalf("completed campaign discarded: %v", err)
	}
	if res.Tally.Injections != n {
		t.Fatalf("injections = %d, want %d", res.Tally.Injections, n)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cres, err := RunCNNCtx(ctx2, CNNCampaign{
		Net: cnn.NewLeNetLite(), Input: cnn.LeNetInput(0), Model: CNNBitFlip,
		Injections: 20, Seed: 4,
		Progress: func(done, total int) {
			if done == total {
				cancel2()
			}
		},
	})
	if err != nil {
		t.Fatalf("completed CNN campaign discarded: %v", err)
	}
	if cres.Tally.Injections != 20 {
		t.Fatalf("injections = %d, want 20", cres.Tally.Injections)
	}
}

// TestCancelMidCampaignStillErrors: the completion carve-out must not
// swallow genuine mid-campaign cancellation.
func TestCancelMidCampaignStillErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunCtx(ctx, Campaign{
		Workload: apps.NewMxM(16), Model: ModelBitFlip,
		Injections: 400, Seed: 3, Workers: 2,
		Progress: func(done, total int) {
			if done == 5 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled campaign returned a result")
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	_, err = RunCNNCtx(ctx2, CNNCampaign{
		Net: cnn.NewLeNetLite(), Input: cnn.LeNetInput(0), Model: CNNBitFlip,
		Injections: 400, Seed: 4, Workers: 2,
		Progress: func(done, total int) {
			if done == 5 {
				cancel2()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled CNN campaign returned a result")
	}
}
