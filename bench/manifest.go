package main

import (
	"encoding/json"
	"fmt"
)

// metric declares one benchmark metric. moves names the end-to-end metric
// and workload a per-layer metric is predicted to move (README.md holds
// the full interaction table); it is documentation, not part of
// BENCHMARK.json.
type metric struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	moves  string
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one driver run measures; the driver passes it
// back as --seconds.
const runSeconds = 20

var workloadDecls = []workloadDecl{
	{"rtl_paper", "full 108-unit RTL characterisation at the paper's 12000 faults/campaign: rtl/rtlfi/syndrome-build do all the work, emu/replay/swfi none; the scale where collapse and marching engage"},
	{"sw_hpc", "six HPC apps x {bit-flip, syndrome}: simulate-dominated emu/fp32/replay/swfi, zero rtl; holds impure-host Quicksort, which disables reconvergence"},
	{"sw_cnn", "LeNetLite and YoloLite x {bit-flip, syndrome, tile}: multi-launch traces, cross-launch live-in pruning, tile model, 1% prune rate; same layers as sw_hpc used differently"},
	{"pipeline_quick", "whole Fig. 2 pipeline at first-time-user scale: golden runs, checkpoint recording, liveness builds, planning and DB fits dominate, so work moved from simulate into preparation shows as a loss"},
	{"serve_fabric", "characterize jobs through jobs.Service + fabric coordinator + HTTP workers: journal, lease/complete round-trips, codec and merge sit on the blocking path around ~14 ms units"},
}

// endToEnd are the gating metrics, the same on every workload. The
// issue's fourth metric, failed_share, must be 0 and so cannot be a
// BENCHMARK.json metric (those are never 0); it is the failed/attempted
// pair of the result line instead. The bounds are the widest the contract
// allows because the recording VM needs them: single 4 s passes there vary
// by 10 % (CV) from outside interference, on one worker as on two, a
// calibration loop does not track it, and spells of 1.5x slowdown last
// minutes (README.md, "Recording machine and run-to-run spread").
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25, ""},
	{"faults_per_s", "1/s", "higher", 0.25, ""},
	{"peak_rss_mb", "MB", "lower", 0.25, ""},
}

var rtlModules = []string{"FP32", "INT", "SFU", "SFUctl", "Scheduler", "Pipeline"}
var hpcApps = []string{"MxM", "Lava", "Quicksort", "Hotspot", "LUD", "Gaussian"}
var cnnNets = []string{"LeNet", "Yolo"}

// perLayer are the non-gating ledger rows of the traced run. A metric
// reads 0 on a workload whose pass never enters that layer.
var perLayer = buildPerLayer()

// declaredUnit maps every declared metric to its unit.
var declaredUnit = func() map[string]string {
	units := map[string]string{}
	for _, m := range endToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
	}
	return units
}()

func buildPerLayer() []metric {
	const (
		rtlMoves  = "faults_per_s on rtl_paper (simulate share) and pipeline_quick (golden/checkpoint share); flat on sw_*"
		fiMoves   = "faults_per_s on rtl_paper; first_progress also pipeline_quick and serve_fabric; unit_ms_p90 sets serve_fabric's job tail"
		synMoves  = "build/save/load: faults_per_s on pipeline_quick, setup_s on sw_*; sample cost <1% on sw_*"
		emuMoves  = "faults_per_s on sw_hpc and sw_cnn (hooked_mips most on sw_cnn); flat on rtl_paper"
		repMoves  = "faults_per_s on pipeline_quick (recording) and, through prune yield, sw_hpc; flat on rtl_paper"
		swMoves   = "faults_per_s on sw_hpc/sw_cnn; prepare_share bounds a pipeline_quick gain; slowest_app_share caps a non-Quicksort gain"
		pipeMoves = "phases sum to a pipeline_quick pass; each tracks its sibling workload at small scale"
		srvMoves  = "faults_per_s on serve_fabric only; flat everywhere else"
		hostMoves = "context for peak_rss_mb and faults_per_s on every workload"
	)
	m := []metric{
		{"rtl.golden_mcycles_per_s", "Mcycles/s", "higher", 0, rtlMoves},
		{"rtl.snapshot_us", "us", "lower", 0, rtlMoves},
		{"rtl.restore_us", "us", "lower", 0, rtlMoves},
		{"rtl.liveness_trace_overhead", "ratio", "lower", 0, rtlMoves},
		{"rtl.sim_cycles", "count", "lower", 0, rtlMoves},
		{"rtl.skipped_cycles", "count", "higher", 0, rtlMoves},

		{"rtlfi.unit_ms_p50", "ms", "lower", 0, fiMoves},
		{"rtlfi.unit_ms_p90", "ms", "lower", 0, fiMoves},
		{"rtlfi.first_progress_ms_p50", "ms", "lower", 0, fiMoves},
		{"rtlfi.micro_faults_per_s", "1/s", "higher", 0, fiMoves},
		{"rtlfi.tmxm_faults_per_s", "1/s", "higher", 0, fiMoves},
	}
	for _, mod := range rtlModules {
		m = append(m, metric{"rtlfi.faults_per_s." + mod, "1/s", "higher", 0, fiMoves})
	}
	m = append(m,
		metric{"rtlfi.replay_speedup", "ratio", "higher", 0, fiMoves},
		metric{"rtlfi.prune_rate", "ratio", "higher", 0, fiMoves},
		metric{"rtlfi.collapse_rate", "ratio", "higher", 0, fiMoves},
		metric{"rtlfi.vector_rate", "ratio", "higher", 0, fiMoves},
		metric{"rtlfi.lane_occupancy", "ratio", "higher", 0, fiMoves},

		metric{"syndrome.build_ms", "ms", "lower", 0, synMoves},
		metric{"syndrome.save_ms", "ms", "lower", 0, synMoves},
		metric{"syndrome.load_ms", "ms", "lower", 0, synMoves},
		metric{"syndrome.db_bytes", "bytes", "lower", 0, synMoves},
		metric{"syndrome.sample_ns", "ns", "lower", 0, synMoves},
		metric{"syndrome.sample_tile_ns", "ns", "lower", 0, synMoves},

		metric{"emu.tier1_mips", "MIPS", "higher", 0, emuMoves},
		metric{"emu.tier0_mips", "MIPS", "higher", 0, emuMoves},
		metric{"emu.hooked_mips", "MIPS", "higher", 0, emuMoves},
		metric{"emu.snapshot_us", "us", "lower", 0, emuMoves},
		metric{"emu.resume_us", "us", "lower", 0, emuMoves},
		metric{"fp32.add_ns", "ns", "lower", 0, emuMoves},
		metric{"fp32.mul_ns", "ns", "lower", 0, emuMoves},
		metric{"fp32.fma_ns", "ns", "lower", 0, emuMoves},
		metric{"fp32.sfu_ns", "ns", "lower", 0, emuMoves},

		metric{"replay.record_overhead", "ratio", "lower", 0, repMoves},
		metric{"replay.liveness_build_ms", "ms", "lower", 0, repMoves},
		metric{"replay.trace_checkpoints", "count", "lower", 0, repMoves},
		metric{"replay.dead_site_share", "ratio", "higher", 0, repMoves},

		metric{"swfi.prepare_s", "s", "lower", 0, swMoves},
		metric{"swfi.prepare_cnn_s", "s", "lower", 0, swMoves},
		metric{"swfi.prepare_share", "ratio", "lower", 0, swMoves},
	)
	for _, a := range append(append([]string{}, hpcApps...), cnnNets...) {
		m = append(m, metric{"swfi.inj_per_s." + a, "1/s", "higher", 0, swMoves})
	}
	for _, model := range []string{"bitflip", "syndrome", "tile"} {
		m = append(m, metric{"swfi.inj_per_s." + model, "1/s", "higher", 0, swMoves})
	}
	m = append(m,
		metric{"swfi.campaign_ms_p50", "ms", "lower", 0, swMoves},
		metric{"swfi.slowest_app_share", "ratio", "lower", 0, swMoves},
		metric{"swfi.ff_speedup", "ratio", "higher", 0, swMoves},
		metric{"swfi.prune_rate", "ratio", "higher", 0, swMoves},
		metric{"swfi.collapse_rate", "ratio", "higher", 0, swMoves},
		metric{"swfi.sim_instrs", "count", "lower", 0, swMoves},
		metric{"swfi.skipped_instrs", "count", "higher", 0, swMoves},
		metric{"swfi.emu_mips", "MIPS", "higher", 0, swMoves},
		metric{"swfi.effective_mips", "MIPS", "higher", 0, swMoves},
	)
	for _, a := range hpcApps {
		m = append(m, metric{"apps.golden_ms." + a, "ms", "lower", 0, swMoves})
	}
	for _, n := range cnnNets {
		m = append(m, metric{"cnn.forward_ms." + n, "ms", "lower", 0, swMoves})
	}
	m = append(m,
		metric{"pipeline.rtl_s", "s", "lower", 0, pipeMoves},
		metric{"pipeline.db_s", "s", "lower", 0, pipeMoves},
		metric{"pipeline.hpc_s", "s", "lower", 0, pipeMoves},
		metric{"pipeline.cnn_s", "s", "lower", 0, pipeMoves},
		metric{"pipeline.report_s", "s", "lower", 0, pipeMoves},
		metric{"pipeline.plan_units", "count", "lower", 0, pipeMoves},

		metric{"jobs.submit_ms_p50", "ms", "lower", 0, srvMoves},
		metric{"jobs.status_ms_p50", "ms", "lower", 0, srvMoves},
		metric{"jobs.journal_bytes", "bytes", "lower", 0, srvMoves},
		metric{"jobs.overhead_ratio", "ratio", "lower", 0, srvMoves},
		metric{"fabric.codec_encode_us", "us", "lower", 0, srvMoves},
		metric{"fabric.codec_decode_us", "us", "lower", 0, srvMoves},
		metric{"fabric.result_bytes_p50", "bytes", "lower", 0, srvMoves},
		metric{"fabric.idle_lease_rtt_us", "us", "lower", 0, srvMoves},
		metric{"fabric.units_completed", "count", "higher", 0, srvMoves},
		metric{"fabric.re_leased", "count", "lower", 0, srvMoves},
		metric{"fabric.deduped", "count", "lower", 0, srvMoves},

		metric{"host.build_s", "s", "lower", 0, hostMoves},
		metric{"host.cpu_s", "s", "lower", 0, hostMoves},
		metric{"host.alloc_mb", "MB", "lower", 0, hostMoves},
		metric{"host.gc_cycles", "count", "lower", 0, hostMoves},
		metric{"host.gc_pause_ms", "ms", "lower", 0, hostMoves},
		metric{"trace.overhead_ratio", "ratio", "lower", 0, hostMoves},
		metric{"trace.spans", "count", "lower", 0, hostMoves},
	)
	return m
}

// manifestJSON renders BENCHMARK.json from the declarations above, so the
// file and the driver cannot drift apart (bench_test.go compares them).
func manifestJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []e2e          `json:"end_to_end"`
		PerLayer   []layer        `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDecls,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("bench: manifest: %v", err))
	}
	return append(blob, '\n')
}
