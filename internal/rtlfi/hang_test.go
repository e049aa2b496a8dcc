package rtlfi

import (
	"errors"
	"reflect"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/rtl"
)

// Scheduler faults are the ones that hang, and a hung run's tail — the
// wedged scheduler repeating one stall cycle up to the watchdog — is
// accounted by the machine without being stepped (rtl.Machine.SkippedCycles).
// These tests hold the campaign bookkeeping around that: whatever the
// engine mode, SimCycles + SkippedCycles is still what a naive engine that
// steps every cycle of every faulty run would have simulated, and a hung
// run's share of SimCycles is the prefix up to its first stall cycle.

// naiveRun is one fault replayed alone from cycle 0 with no accelerator.
type naiveRun struct {
	err            error
	cycles, jumped uint64 // the run's Cycles() and the stall tail inside them
}

// replayNaive runs one job of the plan on m from cycle 0.
func (p *plan) replayNaive(m *rtl.Machine, j faultJob) naiveRun {
	d := p.draws[j.draw]
	m.Inject(j.fault)
	g := append([]uint32(nil), d.global...)
	err := m.Run(p.prog, 1, p.block, g, p.sharedWords, d.budget())
	return naiveRun{err: err, cycles: m.Cycles(), jumped: m.SkippedCycles()}
}

// naiveTotals sums a campaign's naive replays.
type naiveTotals struct {
	cycles, jumped uint64
	hung, wedged   int // watchdog runs, and those of them with a jumped tail
}

func naiveReplay(t *testing.T, p *plan) naiveTotals {
	t.Helper()
	m := rtl.New()
	var nt naiveTotals
	for _, j := range p.jobs {
		r := p.replayNaive(m, j)
		if errors.Is(r.err, rtl.ErrWatchdog) {
			nt.hung++
			if budget := p.draws[j.draw].budget(); r.cycles != budget {
				t.Fatalf("fault %+v: hung run reports %d cycles, budget %d", j.fault, r.cycles, budget)
			}
			if r.jumped > 0 {
				nt.wedged++
			}
		} else if r.jumped != 0 {
			t.Fatalf("fault %+v: %d cycles skipped in a run that did not hang (%v)", j.fault, r.jumped, r.err)
		}
		nt.cycles += r.cycles
		nt.jumped += r.jumped
	}
	return nt
}

// engineModes is the mode lattice, most accelerated first.
var engineModes = []struct {
	name                                  string
	noBitParallel, noPrune, noFastForward bool
}{
	{"BitParallel", false, false, false},
	{"Pruned", true, false, false},
	{"FastForward", true, true, false},
	{"FullReplay", true, true, true},
}

// checkHangCounters holds one mode's counters against the naive replay.
func checkHangCounters(t *testing.T, mode string, c Counters, nt naiveTotals) {
	t.Helper()
	if got := c.SimCycles + c.SkippedCycles; got != nt.cycles {
		t.Errorf("%s: %d simulated + %d skipped = %d, naive replay %d", mode, c.SimCycles, c.SkippedCycles, got, nt.cycles)
	}
	if mode != "FullReplay" {
		return
	}
	// With every accelerator off, the machine's own jumps are all that is
	// skipped: each run costs its stepped cycles, a hung one its prefix.
	if c.SkippedCycles != nt.jumped || c.SimCycles != nt.cycles-nt.jumped {
		t.Errorf("FullReplay: %d simulated / %d skipped, want %d / %d (hung tails only)",
			c.SimCycles, c.SkippedCycles, nt.cycles-nt.jumped, nt.jumped)
	}
}

func TestMicroHangAccounting(t *testing.T) {
	base := Spec{Op: isa.OpIMUL, Range: faults.RangeLarge, Module: faults.ModSched, NumFaults: 5000, Seed: 422}
	p, err := base.plan()
	if err != nil {
		t.Fatal(err)
	}
	nt := naiveReplay(t, p)
	if nt.wedged == 0 {
		t.Fatal("no scheduler fault wedged the machine; the test exercises nothing")
	}
	t.Logf("%d faults: %d hung, %d of them wedged; %d of %d naive cycles are stall tails",
		len(p.jobs), nt.hung, nt.wedged, nt.jumped, nt.cycles)
	var ref *Result
	for _, m := range engineModes {
		spec := base
		spec.NoBitParallel, spec.NoPrune, spec.NoFastForward = m.noBitParallel, m.noPrune, m.noFastForward
		res, err := RunMicro(spec)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if ref == nil {
			ref = res
		} else {
			assertMicroEqual(t, ref, res)
		}
		if res.Tally.DUEs < nt.hung {
			t.Errorf("%s: %d DUEs, but %d runs hang", m.name, res.Tally.DUEs, nt.hung)
		}
		if m.name == "BitParallel" && res.VectorFaults == 0 {
			t.Error("BitParallel: nothing marched; densify the spec")
		}
		checkHangCounters(t, m.name, res.Counters, nt)
	}
}

func TestTMXMHangAccounting(t *testing.T) {
	base := TMXMSpec{Module: faults.ModSched, Kind: 2 /* Random */, NumFaults: 500, Seed: 81}
	p, err := base.plan()
	if err != nil {
		t.Fatal(err)
	}
	nt := naiveReplay(t, p)
	if nt.wedged == 0 {
		t.Fatal("no scheduler fault wedged the machine; the test exercises nothing")
	}
	t.Logf("%d faults: %d hung, %d of them wedged; %d of %d naive cycles are stall tails",
		len(p.jobs), nt.hung, nt.wedged, nt.jumped, nt.cycles)
	var ref *TMXMResult
	for _, m := range engineModes {
		spec := base
		spec.NoBitParallel, spec.NoPrune, spec.NoFastForward = m.noBitParallel, m.noPrune, m.noFastForward
		res, err := RunTMXM(spec)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if ref == nil {
			ref = res
		} else if res.Tally != ref.Tally || res.Patterns != ref.Patterns || !reflect.DeepEqual(res.PatternErrs, ref.PatternErrs) {
			t.Errorf("%s: tally %+v patterns %v, %s has %+v %v (or the error pools differ)",
				m.name, res.Tally, res.Patterns, engineModes[0].name, ref.Tally, ref.Patterns)
		}
		checkHangCounters(t, m.name, res.Counters, nt)
	}
}
