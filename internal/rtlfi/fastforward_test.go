package rtlfi

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtl"
)

// assertMicroEqual compares everything in two campaign results that the
// fast-forward optimisation promises to preserve bit-identically. Spec
// (which carries the NoFastForward flag) and the SimCycles/SkippedCycles
// meta-counters are the only fields allowed to differ.
func assertMicroEqual(t *testing.T, ff, full *Result) {
	t.Helper()
	if ff.Tally != full.Tally {
		t.Fatalf("tally: fast-forward %+v, full replay %+v", ff.Tally, full.Tally)
	}
	if !reflect.DeepEqual(ff.Syndromes, full.Syndromes) {
		t.Fatalf("syndromes differ (%d vs %d entries)", len(ff.Syndromes), len(full.Syndromes))
	}
	if !reflect.DeepEqual(ff.ThreadCounts, full.ThreadCounts) {
		t.Fatal("thread counts differ")
	}
	if !reflect.DeepEqual(ff.BitsWrong, full.BitsWrong) {
		t.Fatal("bits-wrong pools differ")
	}
	if !reflect.DeepEqual(ff.Details, full.Details) {
		t.Fatal("detailed records differ")
	}
	if ff.GoldenCycles != full.GoldenCycles {
		t.Fatalf("golden cycles: %d vs %d", ff.GoldenCycles, full.GoldenCycles)
	}
}

// TestMicroFastForwardBitIdentical is the checkpoint optimisation's
// anchor regression: checkpointed campaigns must be byte-identical to
// full replay, per module family. NoPrune and NoBitParallel on both
// sides isolate the fast-forward path; prune_test.go covers dead-site
// pruning and the combined modes, vec_test.go the bit-parallel engine.
func TestMicroFastForwardBitIdentical(t *testing.T) {
	specs := []Spec{
		{Op: isa.OpFADD, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 400, Seed: 421, NoPrune: true, NoBitParallel: true},
		{Op: isa.OpIMUL, Range: faults.RangeLarge, Module: faults.ModSched, NumFaults: 400, Seed: 422, NoPrune: true, NoBitParallel: true},
	}
	for _, spec := range specs {
		ff, err := RunMicro(spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.NoFastForward = true
		full, err := RunMicro(spec)
		if err != nil {
			t.Fatal(err)
		}
		assertMicroEqual(t, ff, full)
		if ff.SkippedCycles == 0 {
			t.Errorf("%s/%s: fast-forward skipped no cycles", spec.Op, spec.Module)
		}
		// Full replay skips nothing of its own: only the stall tails the
		// machine jumps in hung runs (scheduler faults wedge, these
		// pipeline faults do not), and with them it costs exactly what
		// stepping every cycle of every faulty run would.
		p, err := spec.plan()
		if err != nil {
			t.Fatal(err)
		}
		nt := naiveReplay(t, p)
		if full.SkippedCycles != nt.jumped {
			t.Errorf("%s/%s: full replay reported %d skipped cycles, hung runs' stall tails are %d",
				spec.Op, spec.Module, full.SkippedCycles, nt.jumped)
		}
		if (nt.jumped != 0) != (spec.Module == faults.ModSched) {
			t.Errorf("%s/%s: %d stall-tail cycles", spec.Op, spec.Module, nt.jumped)
		}
		if ff.SimCycles+ff.SkippedCycles != nt.cycles || full.SimCycles+full.SkippedCycles != nt.cycles {
			t.Errorf("%s/%s: cycle accounting: fast-forward %d simulated + %d skipped, full %d + %d, naive replay %d",
				spec.Op, spec.Module, ff.SimCycles, ff.SkippedCycles, full.SimCycles, full.SkippedCycles, nt.cycles)
		}
	}
}

// TestTMXMFastForwardBitIdentical mirrors the regression for the t-MxM
// campaign path.
func TestTMXMFastForwardBitIdentical(t *testing.T) {
	spec := TMXMSpec{Module: faults.ModPipe, Kind: 2 /* Random */, NumFaults: 200, Seed: 77, NoPrune: true, NoBitParallel: true}
	ff, err := RunTMXM(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.NoFastForward = true
	full, err := RunTMXM(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ff.Tally != full.Tally {
		t.Fatalf("tally: fast-forward %+v, full replay %+v", ff.Tally, full.Tally)
	}
	if ff.Patterns != full.Patterns {
		t.Fatalf("patterns: %v vs %v", ff.Patterns, full.Patterns)
	}
	if !reflect.DeepEqual(ff.PatternErrs, full.PatternErrs) {
		t.Fatal("pattern error pools differ")
	}
	if ff.GoldenCycles != full.GoldenCycles {
		t.Fatalf("golden cycles: %d vs %d", ff.GoldenCycles, full.GoldenCycles)
	}
	if ff.SkippedCycles == 0 {
		t.Error("fast-forward skipped no cycles")
	}
	if ff.SimCycles+ff.SkippedCycles != full.SimCycles {
		t.Errorf("cycle accounting: %d + %d != %d", ff.SimCycles, ff.SkippedCycles, full.SimCycles)
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
		bad, j.fault.Module, j.fault.Bit, j.fault.Cycle, j.draw, bad)
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("got %v, want it to start %q", err, want)
	}
}
