package rtlfi

import (
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
)

// Scheduler faults are the ones that hang, and a hung run's tail — the
// wedged scheduler repeating one stall cycle up to the watchdog — is
// accounted by the machine without being stepped (rtl.Machine.SkippedCycles).
// These tests hold the campaign bookkeeping around that: whatever the
// engine mode, the results are the oracle's and SimCycles + SkippedCycles
// is still what the oracle, stepping every cycle of every faulty run up to
// the stall tail, accounts.

func TestMicroHangAccounting(t *testing.T) {
	spec := Spec{Op: isa.OpIMUL, Range: faults.RangeLarge, Module: faults.ModSched, NumFaults: 5000, Seed: 422}
	modes, nt := checkMicroModes(t, spec)
	if nt.wedged == 0 {
		t.Fatal("no scheduler fault wedged the machine; the test exercises nothing")
	}
	t.Logf("%d faults: %d hung, %d of them wedged; %d of %d naive cycles are stall tails",
		spec.NumFaults, nt.hung, nt.wedged, nt.jumped, nt.cycles)
	for i, res := range modes {
		if res.Tally.DUEs < nt.hung {
			t.Errorf("%s: %d DUEs, but %d runs hang", engineModes[i].name, res.Tally.DUEs, nt.hung)
		}
	}
	if modes[0].VectorFaults == 0 {
		t.Errorf("%s: nothing marched; densify the spec", engineModes[0].name)
	}
}

func TestTMXMHangAccounting(t *testing.T) {
	spec := TMXMSpec{Module: faults.ModSched, Kind: 2 /* Random */, NumFaults: 500, Seed: 81}
	_, nt := checkTMXMModes(t, spec)
	if nt.wedged == 0 {
		t.Fatal("no scheduler fault wedged the machine; the test exercises nothing")
	}
	t.Logf("%d faults: %d hung, %d of them wedged; %d of %d naive cycles are stall tails",
		spec.NumFaults, nt.hung, nt.wedged, nt.jumped, nt.cycles)
}
