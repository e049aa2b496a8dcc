package rtlfi

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtl"
)

// TestMicroFastForwardBitIdentical is the checkpoint optimisation's
// anchor regression: every engine mode, the plain fast-forward one
// included, must equal the oracle's from-cycle-0 replays byte for byte, on
// a pipeline spec whose faults never hang and a scheduler spec whose
// faults wedge the machine.
func TestMicroFastForwardBitIdentical(t *testing.T) {
	specs := []Spec{
		{Op: isa.OpFADD, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 400, Seed: 421},
		{Op: isa.OpIMUL, Range: faults.RangeLarge, Module: faults.ModSched, NumFaults: 400, Seed: 422},
	}
	for _, spec := range specs {
		modes, nt := checkMicroModes(t, spec)
		if ff := modes[len(modes)-1]; ff.SkippedCycles == 0 {
			t.Errorf("%s/%s: fast-forward skipped no cycles", spec.Op, spec.Module)
		}
		// Only the stall tails of hung runs are jumped by the machine
		// itself: scheduler faults wedge, these pipeline faults do not.
		if (nt.jumped != 0) != (spec.Module == faults.ModSched) {
			t.Errorf("%s/%s: %d stall-tail cycles", spec.Op, spec.Module, nt.jumped)
		}
	}
}

// TestTMXMFastForwardBitIdentical mirrors the regression for the t-MxM
// campaign path.
func TestTMXMFastForwardBitIdentical(t *testing.T) {
	modes, _ := checkTMXMModes(t, TMXMSpec{Module: faults.ModPipe, Kind: 2 /* Random */, NumFaults: 200, Seed: 77})
	if ff := modes[len(modes)-1]; ff.SkippedCycles == 0 {
		t.Error("fast-forward skipped no cycles")
	}
}

// TestCancelAfterCompletionKeepsResult: cancellation landing between the
// last job and the post-Wait context check must not discard a campaign
// in which every fault was simulated.
func TestCancelAfterCompletionKeepsResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 60
	res, err := RunMicroCtx(ctx, Spec{
		Op: isa.OpFADD, Range: faults.RangeSmall, Module: faults.ModFP32,
		NumFaults: n, Seed: 3,
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
	tres, err := RunTMXMCtx(ctx2, TMXMSpec{
		Module: faults.ModSched, Kind: 2, NumFaults: 40, Seed: 4,
		Progress: func(done, total int) {
			if done == total {
				cancel2()
			}
		},
	})
	if err != nil {
		t.Fatalf("completed t-MxM campaign discarded: %v", err)
	}
	if tres.Tally.Injections != 40 {
		t.Fatalf("injections = %d, want 40", tres.Tally.Injections)
	}
}

// TestCancelMidCampaignStillErrors: the completion carve-out must not
// swallow genuine mid-campaign cancellation.
func TestCancelMidCampaignStillErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunMicroCtx(ctx, Spec{
		Op: isa.OpFADD, Range: faults.RangeSmall, Module: faults.ModFP32,
		NumFaults: 500, Seed: 3, Workers: 2,
		Progress: func(done, total int) {
			if done == 5 {
				cancel()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled campaign returned a result")
	}
}

// TestClassifyMemoryScanRecordsWord: fallback-scan SDCs must report the
// corrupted memory word in Word and keep Thread at the -1 sentinel
// instead of leaking a word index into the thread field (§V-B data).
func TestClassifyMemoryScanRecordsWord(t *testing.T) {
	machine := rtl.New()
	golden := make([]uint32, MicroWords())
	g := append([]uint32(nil), golden...)
	const corruptedWord = 7 // inside the input region, outside any output area
	g[corruptedWord] = 0xDEADBEEF

	res := &Result{}
	res.add(classify(isa.OpIADD, rtl.Fault{Module: faults.ModPipe}, machine, g, golden, nil))
	if res.Tally.SDCs() != 1 || len(res.Details) != 1 {
		t.Fatalf("expected one SDC detail, got tally %+v, %d details", res.Tally, len(res.Details))
	}
	d := res.Details[0]
	if d.Thread != -1 {
		t.Errorf("memory-scan record leaked Thread = %d, want -1", d.Thread)
	}
	if d.Word != corruptedWord {
		t.Errorf("Word = %d, want %d", d.Word, corruptedWord)
	}

	// A regular output-region SDC keeps the thread index and the -1 Word.
	g2 := append([]uint32(nil), golden...)
	g2[3*MicroThreads+5] = 1 // thread 5's output word
	res2 := &Result{}
	res2.add(classify(isa.OpIADD, rtl.Fault{Module: faults.ModPipe}, machine, g2, golden, nil))
	if len(res2.Details) != 1 {
		t.Fatalf("expected one detail, got %d", len(res2.Details))
	}
	if res2.Details[0].Thread != 5 || res2.Details[0].Word != -1 {
		t.Errorf("output record Thread=%d Word=%d, want 5/-1", res2.Details[0].Thread, res2.Details[0].Word)
	}
}

// TestFaultPanicNamesTheSite: a panic while one fault is simulated or
// classified fails the campaign with an error naming that fault's site.
func TestFaultPanicNamesTheSite(t *testing.T) {
	p, err := Spec{Op: isa.OpFADD, Range: faults.RangeMedium, Module: faults.ModPipe,
		NumFaults: 40, Seed: 5, Workers: 1, NoPrune: true, NoBitParallel: true}.plan()
	if err != nil {
		t.Fatal(err)
	}
	bad := slices.Index(p.jobs, p.jobs[13])
	_, _, err = run(context.Background(), p, func(_ *rtl.Machine, j faultJob, _ []uint32, _ error) int {
		if j == p.jobs[bad] {
			panic("stuck pipeline")
		}
		return 0
	})
	j := p.jobs[bad]
	want := fmt.Sprintf("rtlfi: fault %d (%v bit %d, cycle %d, input draw %d): job %d panicked: stuck pipeline",
		bad, p.module, j.bit, j.cycle, j.draw, bad)
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("got %v, want it to start %q", err, want)
	}
}

// MicroWords returns the global-memory image size of a micro-benchmark.
func MicroWords() int { return microWords }
