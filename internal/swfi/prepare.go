package swfi

import (
	"fmt"
	"slices"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/replay"
)

// checkpointsPerCampaign bounds the golden-prefix snapshots recorded per
// campaign workload. An injection run forks at the later of the latest
// checkpoint at or before its target and the start of the target's block,
// so a snapshot only serves targets in a block it lies inside (Lava's one
// block, the large blocks of MxM and the CNN layers), and each one copies
// the whole arena. 12 and 48 were priced against 24 (EXPERIMENTS.md,
// checkpointsPerCampaign). The same value rtlfi uses per input draw.
const checkpointsPerCampaign = 24

// prepared holds everything the injections of a subject's campaigns
// share: the golden output (of type G), the instruction profile and the
// checkpoint trace. It is read-only once
// built, so concurrent workers and several campaigns on the same subject
// (e.g. bit-flip and syndrome models) reuse one preparation.
type prepared[G any] struct {
	golden  G
	profile Counts
	trace   *replay.Trace
}

// Prepared is the shared preparation of an HPC workload's campaigns; see
// PrepareWorkload.
type Prepared = prepared[[]uint32]

// CNNPrepared is Prepared for a CNN campaign: one network/input pair's
// golden output, profile and checkpoint trace, shared across that pair's
// campaigns (bit-flip, syndrome and tile models alike).
type CNNPrepared = prepared[[]float32]

// prepare runs a subject's golden execution and records its fast-forward
// trace: ~checkpointsPerCampaign emulator snapshots plus the per-block
// records, verified bit-identical (same) to the plain golden run before it
// is trusted. The profile is the golden run's own per-opcode count.
func prepare[G any](name string, run func(replay.Runner) (G, error), same func(a, b G) bool) (*prepared[G], error) {
	plain := &replay.Plain{}
	golden, err := run(plain)
	if err != nil {
		return nil, fmt.Errorf("swfi: golden run of %s failed: %w", name, err)
	}
	p := &prepared[G]{golden: golden, profile: plain.Res.PerOpcode}
	// Injectable as the countable predicate: the trace's countable
	// coordinates then index exactly the dynamic instructions an injector
	// counts and targets.
	rec := replay.NewRecorder(plain.Res.DynThreadInstrs/checkpointsPerCampaign, Injectable)
	recOut, err := run(rec)
	if err != nil {
		return nil, fmt.Errorf("swfi: checkpoint replay of %s failed: %w", name, err)
	}
	if !same(golden, recOut) {
		return nil, fmt.Errorf("swfi: checkpoint replay of %s diverged from golden run", name)
	}
	p.trace = rec.Finish()
	return p, nil
}

// PrepareWorkload runs the workload's golden execution and records its
// fast-forward trace, so several campaigns on it can share one
// preparation (Campaign.Prepared).
func PrepareWorkload(w *apps.Workload) (*Prepared, error) {
	return prepare(w.Name, w.ExecuteWith, slices.Equal[[]uint32])
}

// PrepareCNN records a network/input pair's golden execution and
// fast-forward trace, so the three fault models can share one preparation
// (CNNCampaign.Prepared).
func PrepareCNN(net *cnn.Network, input []float32) (*CNNPrepared, error) {
	run := func(rt replay.Runner) ([]float32, error) { return net.RunWith(rt, input, nil) }
	return prepare(net.Name, run, floatsEqual)
}
