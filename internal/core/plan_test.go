package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/syndrome"
)

// sweepConfig is an 18-unit plan: FADD 3 + IADD 3 + FSIN 4 + GLD 2 micro
// campaigns and the six t-MxM ones.
func sweepConfig() CharacterizeConfig {
	return CharacterizeConfig{
		FaultsPerCampaign: 240,
		Seed:              2021,
		Ops:               []isa.Opcode{isa.OpFADD, isa.OpIADD, isa.OpFSIN, isa.OpGLD},
		Ranges:            []faults.InputRange{faults.RangeMedium},
	}
}

// TestCharacterizeMatchesSerialPlan holds the scheduler to the loop it
// replaced: whatever the CPU budget, the characterisation is the one a
// unit-at-a-time Plan / RunUnit / AddUnit walk builds.
func TestCharacterizeMatchesSerialPlan(t *testing.T) {
	cfg := sweepConfig()
	plan := Plan(cfg)
	if len(plan) < 12 {
		t.Fatalf("plan has %d units, want at least 12", len(plan))
	}
	ref := &Characterization{DB: syndrome.New()}
	for _, u := range plan {
		res, err := RunUnit(context.Background(), u, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref.AddUnit(res)
	}
	refDB, err := json.Marshal(ref.DB)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3, 5} {
		cfg.Workers = workers
		got, err := CharacterizeCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		db, err := json.Marshal(got.DB)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(db, refDB) {
			t.Errorf("Workers=%d: syndrome DB differs from the serial plan's", workers)
		}
		if len(got.Micro) != len(ref.Micro) || len(got.TMXM) != len(ref.TMXM) {
			t.Fatalf("Workers=%d: %d micro / %d t-MxM results, want %d / %d",
				workers, len(got.Micro), len(got.TMXM), len(ref.Micro), len(ref.TMXM))
		}
		for i, r := range got.Micro {
			want := ref.Micro[i]
			if r.Spec.Op != want.Spec.Op || r.Spec.Range != want.Spec.Range || r.Spec.Module != want.Spec.Module || r.Spec.Seed != want.Spec.Seed {
				t.Errorf("Workers=%d: Micro[%d] is %v/%v/%v, want %v/%v/%v", workers, i,
					r.Spec.Op, r.Spec.Range, r.Spec.Module, want.Spec.Op, want.Spec.Range, want.Spec.Module)
			}
			if r.Tally != want.Tally || r.SimCycles+r.SkippedCycles != want.SimCycles+want.SkippedCycles {
				t.Errorf("Workers=%d: Micro[%d] tally %+v sim+skipped %d, want %+v %d", workers, i,
					r.Tally, r.SimCycles+r.SkippedCycles, want.Tally, want.SimCycles+want.SkippedCycles)
			}
		}
		for i, r := range got.TMXM {
			want := ref.TMXM[i]
			if r.Spec.Module != want.Spec.Module || r.Spec.Kind != want.Spec.Kind || r.Spec.Seed != want.Spec.Seed {
				t.Errorf("Workers=%d: TMXM[%d] is %v/%v, want %v/%v", workers, i,
					r.Spec.Module, r.Spec.Kind, want.Spec.Module, want.Spec.Kind)
			}
			if r.Tally != want.Tally || r.SimCycles+r.SkippedCycles != want.SimCycles+want.SkippedCycles {
				t.Errorf("Workers=%d: TMXM[%d] tally %+v sim+skipped %d, want %+v %d", workers, i,
					r.Tally, r.SimCycles+r.SkippedCycles, want.Tally, want.SimCycles+want.SkippedCycles)
			}
		}
	}
}

// TestCharacterizeCancelMidPlan cancels a real characterisation from its
// own progress callback and checks that the call reports the context's
// error and leaves nothing running behind it.
func TestCharacterizeCancelMidPlan(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 3} {
		cfg := sweepConfig()
		cfg.Workers = workers
		ctx, cancel := context.WithCancel(context.Background())
		cfg.Progress = func(done, total int) {
			if done >= total/3 {
				cancel()
			}
		}
		got, err := CharacterizeCtx(ctx, cfg)
		cancel()
		if got != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("Workers=%d: CharacterizeCtx = %v, %v; want context.Canceled", workers, got, err)
		}
	}
	// A runner is done before CharacterizeCtx returns, but its goroutine
	// may take a moment longer to leave the scheduler's count.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after a cancelled characterisation", before, after)
	}
}

// progressLog records every Progress call; the callback is documented as
// concurrent.
type progressLog struct {
	mu    sync.Mutex
	calls [][2]int
}

func (p *progressLog) record(done, total int) {
	p.mu.Lock()
	p.calls = append(p.calls, [2]int{done, total})
	p.mu.Unlock()
}

func (p *progressLog) check(t *testing.T, name string, total int) {
	t.Helper()
	if len(p.calls) == 0 {
		t.Fatalf("%s: Progress never called", name)
	}
	for i, c := range p.calls {
		if c[1] != total || c[0] < 0 || c[0] > total {
			t.Fatalf("%s: Progress call %d is (%d, %d), total is %d", name, i, c[0], c[1], total)
		}
		if last := i == len(p.calls)-1; (c[0] == total) != last {
			t.Fatalf("%s: Progress call %d of %d is (%d, %d); exactly the last call reports the total",
				name, i, len(p.calls), c[0], c[1])
		}
	}
}

func TestCharacterizeProgress(t *testing.T) {
	// 18 units on 3 runners with one engine worker each, then a two-unit
	// plan on a budget of 5: two engine workers per unit report out of
	// order.
	wide := sweepConfig()
	wide.Workers = 3
	narrow := CharacterizeConfig{
		FaultsPerCampaign: 4000, Seed: 7, Workers: 5, SkipTMXM: true,
		Ops: []isa.Opcode{isa.OpGLD}, Ranges: []faults.InputRange{faults.RangeSmall},
	}
	for name, cfg := range map[string]CharacterizeConfig{"wide": wide, "narrow": narrow} {
		total := 0
		for _, u := range Plan(cfg) {
			total += u.Faults
		}
		var log progressLog
		cfg.Progress = log.record
		if _, err := CharacterizeCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		log.check(t, name, total)
	}
}
