package main

import (
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	in := `goos: linux
BenchmarkRTLFI_MicroCampaign/Pipe/Pruned-4    3    9653715 ns/op    79.77 replay-speedup
BenchmarkRTLFI_MicroCampaign/Pipe/Pruned-4    3    9000000 ns/op
BenchmarkSWFI_HPC/Jacobi-8                    1    12345678 ns/op
not a bench line
PASS`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
	// Repeated runs keep the fastest measurement.
	if ns := got["BenchmarkRTLFI_MicroCampaign/Pipe/Pruned"]; ns != 9000000 {
		t.Fatalf("RTLFI ns/op = %v, want 9000000 (fastest of repeats)", ns)
	}
	if ns := got["BenchmarkSWFI_HPC/Jacobi"]; ns != 12345678 {
		t.Fatalf("SWFI ns/op = %v, want 12345678", ns)
	}
}

func TestGateReportsAllRegressions(t *testing.T) {
	measured := map[string]float64{
		"BenchmarkRTLFI_A": 1000, // 10x regression
		"BenchmarkRTLFI_B": 500,  // 5x regression
		"BenchmarkSWFI_C":  100,  // fine
		"BenchmarkOther_D": 9999, // not guarded
	}
	base := map[string]float64{
		"BenchmarkRTLFI_A": 100,
		"BenchmarkRTLFI_B": 100,
		"BenchmarkSWFI_C":  100,
		"BenchmarkOther_D": 1,
	}
	rep := gate(measured, base, 2.5)
	if rep.checked != 3 {
		t.Fatalf("checked = %d, want 3 (guarded only)", rep.checked)
	}
	if len(rep.failures) != 2 {
		t.Fatalf("failures = %v, want both regressions reported in one run", rep.failures)
	}
	if !strings.Contains(rep.failures[0], "BenchmarkRTLFI_A") || !strings.Contains(rep.failures[1], "BenchmarkRTLFI_B") {
		t.Fatalf("failures missing a regression: %v", rep.failures)
	}
	if len(rep.missing) != 0 {
		t.Fatalf("missing = %v, want none", rep.missing)
	}
}

func TestGateFlagsMissingBaselineEntries(t *testing.T) {
	measured := map[string]float64{
		"BenchmarkRTLFI_A": 100,
	}
	base := map[string]float64{
		"BenchmarkRTLFI_A":   100,
		"BenchmarkRTLFI_Old": 100, // guarded baseline no longer measured
		"BenchmarkSWFI_Gone": 100, // likewise
		"BenchmarkOther_X":   100, // unguarded: never an error
	}
	rep := gate(measured, base, 2.5)
	if len(rep.failures) != 0 {
		t.Fatalf("failures = %v, want none", rep.failures)
	}
	want := []string{"BenchmarkRTLFI_Old", "BenchmarkSWFI_Gone"}
	if len(rep.missing) != len(want) {
		t.Fatalf("missing = %v, want %v", rep.missing, want)
	}
	for i, name := range want {
		if rep.missing[i] != name {
			t.Fatalf("missing = %v, want %v", rep.missing, want)
		}
	}
}

func TestGateGuardsSWFIModeMatrix(t *testing.T) {
	// The software-campaign engine modes are guarded baselines: a bench
	// run that stops measuring them (renamed mode, narrowed filter) must
	// fail rather than silently lose coverage.
	base := map[string]float64{
		"BenchmarkSWFI_HPCCampaign/Pruned":      100,
		"BenchmarkSWFI_HPCCampaign/FastForward": 100,
		"BenchmarkSWFI_HPCCampaign/FullReplay":  100,
	}
	measured := map[string]float64{
		"BenchmarkSWFI_HPCCampaign/FullReplay": 100,
	}
	rep := gate(measured, base, 2.5)
	want := []string{"BenchmarkSWFI_HPCCampaign/FastForward", "BenchmarkSWFI_HPCCampaign/Pruned"}
	if len(rep.missing) != len(want) {
		t.Fatalf("missing = %v, want %v", rep.missing, want)
	}
	for i, name := range want {
		if rep.missing[i] != name {
			t.Fatalf("missing = %v, want %v", rep.missing, want)
		}
	}
}

func TestGateSkipsUnbaselinedMeasurements(t *testing.T) {
	measured := map[string]float64{
		"BenchmarkRTLFI_New": 1e12, // huge but unbaselined: skipped, not failed
		"BenchmarkRTLFI_A":   100,
	}
	base := map[string]float64{"BenchmarkRTLFI_A": 100}
	rep := gate(measured, base, 2.5)
	if rep.checked != 1 || len(rep.failures) != 0 || len(rep.missing) != 0 {
		t.Fatalf("rep = %+v, want exactly one clean check", rep)
	}
}
