package swfi

import (
	"context"
	"reflect"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
)

// assertCampaignEqual compares everything in two HPC campaign results that
// must not depend on how the engine was driven. The Campaign field and the
// engine counters are the only fields allowed to differ.
func assertCampaignEqual(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Tally != want.Tally {
		t.Fatalf("tally: %+v, want %+v", got.Tally, want.Tally)
	}
	if got.Profile != want.Profile {
		t.Fatal("opcode profiles differ")
	}
	if got.Injectable != want.Injectable {
		t.Fatalf("injectable totals: %d vs %d", got.Injectable, want.Injectable)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatal("injection records differ")
	}
}

// TestHPCFastForwardBitIdentical is the software-campaign checkpoint
// optimisation's anchor regression: fast-forwarded campaigns must be
// byte-identical to the oracle's full replays — tallies, per-injection
// records, profile — and account every instruction those replays execute.
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
		checkHPC(t, c)
	}
}

// TestHPCSyndromeFastForwardBitIdentical covers the syndrome model, whose
// injector additionally reads source operands out of replayed events for
// magnitude-range selection.
func TestHPCSyndromeFastForwardBitIdentical(t *testing.T) {
	checkHPC(t, Campaign{
		Workload: apps.NewHotspot(16, 4), Model: ModelSyndrome, DB: testDB(t),
		Injections: 60, Seed: 313, Workers: 2, RecordInjections: true,
	})
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
		own, err := RunCtx(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		c.Prepared = prep
		shared, err := RunCtx(context.Background(), c)
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
	checkCNN(t, CNNCampaign{
		Net: net, Input: input, Model: CNNBitFlip,
		Injections: 80, Seed: 411, Workers: 3, Critical: LeNetCritical,
	})
	checkCNN(t, CNNCampaign{
		Net: net, Input: input, Model: CNNTile, DB: testDB(t),
		Injections: 60, Seed: 412, Workers: 2, Critical: LeNetCritical,
	})
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
