package rtlfi

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/rtl"
)

// The oracle is the naive engine every campaign mode is held to: each job
// of the plan's fault list replayed alone from cycle 0 on a plain machine —
// no checkpoint, no pruning, no marching — then classified and folded in
// job order. It shares only the fault list (with the golden runs it is
// drawn against) and the family's classification with the engine.

// naiveRun is one fault replayed alone from cycle 0 with no accelerator.
type naiveRun struct {
	g              []uint32 // final global-memory image
	err            error
	cycles, jumped uint64 // the run's Cycles() and the stall tail inside them
}

// replayNaive runs one job of the plan on m from cycle 0.
func (p *plan) replayNaive(m *rtl.Machine, j faultJob) naiveRun {
	d := p.draws[j.draw]
	m.Inject(p.fault(j))
	g := append([]uint32(nil), d.global...)
	err := m.Run(p.prog, 1, p.block, g, p.sharedWords, d.budget())
	return naiveRun{g: g, err: err, cycles: m.Cycles(), jumped: m.SkippedCycles()}
}

// naiveTotals sums a campaign's naive replays.
type naiveTotals struct {
	cycles, jumped uint64
	hung, wedged   int // watchdog runs, and those of them with a jumped tail
}

// naiveReplay replays every job of p, fanned out over goroutines with one
// machine each, and returns the runs in job order with their totals. On
// the way it holds the machine's own accounting: a hung run reports
// exactly its budget, and only hung runs jump cycles.
func naiveReplay(t *testing.T, p *plan) ([]naiveRun, naiveTotals) {
	t.Helper()
	runs := make([]naiveRun, len(p.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := rtl.New()
			for i := int(next.Add(1) - 1); i < len(runs); i = int(next.Add(1) - 1) {
				runs[i] = p.replayNaive(m, p.jobs[i])
			}
		}()
	}
	wg.Wait()
	var nt naiveTotals
	for i, r := range runs {
		j := p.jobs[i]
		if errors.Is(r.err, rtl.ErrWatchdog) {
			nt.hung++
			if budget := p.draws[j.draw].budget(); r.cycles != budget {
				t.Fatalf("fault %+v: hung run reports %d cycles, budget %d", p.fault(j), r.cycles, budget)
			}
			if r.jumped > 0 {
				nt.wedged++
			}
		} else if r.jumped != 0 {
			t.Fatalf("fault %+v: %d cycles skipped in a run that did not hang (%v)", p.fault(j), r.jumped, r.err)
		}
		nt.cycles += r.cycles
		nt.jumped += r.jumped
	}
	return runs, nt
}

// microOracle runs spec's campaign on the naive engine.
func microOracle(t *testing.T, spec Spec) (*Result, naiveTotals) {
	t.Helper()
	p, err := spec.plan()
	if err != nil {
		t.Fatal(err)
	}
	runs, nt := naiveReplay(t, p)
	res := &Result{Spec: spec, GoldenCycles: p.draws[0].goldenCycles}
	m := rtl.New()
	for i, j := range p.jobs {
		res.add(classify(spec.Op, p.fault(j), m, runs[i].g, p.draws[j.draw].golden, runs[i].err))
	}
	return res, nt
}

// tmxmOracle runs spec's campaign on the naive engine.
func tmxmOracle(t *testing.T, spec TMXMSpec) (*TMXMResult, naiveTotals) {
	t.Helper()
	p, err := spec.plan()
	if err != nil {
		t.Fatal(err)
	}
	runs, nt := naiveReplay(t, p)
	goldenC := goldenTiles(p)
	res := &TMXMResult{Spec: spec, PatternErrs: make(map[faults.Pattern][]float64), GoldenCycles: p.draws[0].goldenCycles}
	for i, j := range p.jobs {
		res.add(classifyTMXM(goldenC[j.draw], runs[i].g, runs[i].err))
	}
	return res, nt
}

// engineModes is the mode lattice, most accelerated first. Every mode
// fast-forwards from golden checkpoints.
var engineModes = []struct {
	name                   string
	noBitParallel, noPrune bool
}{
	{"BitParallel", false, false},
	{"Pruned", true, false},
	{"FastForward", true, true},
}

// checkMicroModes runs spec in every engine mode, one subtest each, and
// holds each to the oracle: the same campaign result, and SimCycles +
// SkippedCycles equal to the naive replay's stepped-plus-jumped total. It
// returns the mode results in engineModes order and the naive totals.
func checkMicroModes(t *testing.T, spec Spec) ([]*Result, naiveTotals) {
	t.Helper()
	want, nt := microOracle(t, spec)
	out := make([]*Result, len(engineModes))
	for i, m := range engineModes {
		spec.NoBitParallel, spec.NoPrune = m.noBitParallel, m.noPrune
		res, err := RunMicroCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		out[i] = res
		t.Run(m.name, func(t *testing.T) {
			assertMicroEqual(t, res, want)
			checkCycles(t, res.Counters, nt)
		})
	}
	return out, nt
}

// checkTMXMModes is checkMicroModes for a t-MxM spec.
func checkTMXMModes(t *testing.T, spec TMXMSpec) ([]*TMXMResult, naiveTotals) {
	t.Helper()
	want, nt := tmxmOracle(t, spec)
	out := make([]*TMXMResult, len(engineModes))
	for i, m := range engineModes {
		spec.NoBitParallel, spec.NoPrune = m.noBitParallel, m.noPrune
		res, err := RunTMXMCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		out[i] = res
		t.Run(m.name, func(t *testing.T) {
			if res.Tally != want.Tally || res.Patterns != want.Patterns {
				t.Fatalf("tally %+v patterns %v, oracle %+v %v", res.Tally, res.Patterns, want.Tally, want.Patterns)
			}
			if !reflect.DeepEqual(res.PatternErrs, want.PatternErrs) {
				t.Fatal("pattern error pools differ from the oracle's")
			}
			if res.GoldenCycles != want.GoldenCycles {
				t.Fatalf("golden cycles: %d, oracle %d", res.GoldenCycles, want.GoldenCycles)
			}
			checkCycles(t, res.Counters, nt)
		})
	}
	return out, nt
}

// checkCycles holds a mode's cycle accounting to the naive replay's: what
// the engine simulated plus what it proved it need not is every cycle the
// naive engine stepped or jumped.
func checkCycles(t *testing.T, c Counters, nt naiveTotals) {
	t.Helper()
	if got := c.SimCycles + c.SkippedCycles; got != nt.cycles {
		t.Errorf("%d simulated + %d skipped = %d, naive replay %d", c.SimCycles, c.SkippedCycles, got, nt.cycles)
	}
}

// assertMicroEqual compares everything in a campaign result that the
// engine's accelerators promise to preserve bit-identically against a
// reference result. Spec and the engine counters are the only fields
// allowed to differ.
func assertMicroEqual(t *testing.T, got, want *Result) {
	t.Helper()
	if got.Tally != want.Tally {
		t.Fatalf("tally: %+v, want %+v", got.Tally, want.Tally)
	}
	if !reflect.DeepEqual(got.Syndromes, want.Syndromes) {
		t.Fatalf("syndromes differ (%d vs %d entries)", len(got.Syndromes), len(want.Syndromes))
	}
	if !reflect.DeepEqual(got.ThreadCounts, want.ThreadCounts) {
		t.Fatal("thread counts differ")
	}
	if !reflect.DeepEqual(got.BitsWrong, want.BitsWrong) {
		t.Fatal("bits-wrong pools differ")
	}
	if !reflect.DeepEqual(got.Details, want.Details) {
		t.Fatal("detailed records differ")
	}
	if got.GoldenCycles != want.GoldenCycles {
		t.Fatalf("golden cycles: %d vs %d", got.GoldenCycles, want.GoldenCycles)
	}
}
