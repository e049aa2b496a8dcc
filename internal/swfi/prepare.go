package swfi

import (
	"fmt"
	"slices"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/emu"
	"gpufi/internal/replay"
)

// checkpointsPerCampaign bounds the golden-prefix snapshots recorded per
// campaign workload. Injection runs fast-forward to the latest checkpoint
// at or before their target instruction, so the residual golden prefix
// re-simulated per injection averages totalInstrs/(2*checkpointsPerCampaign)
// — ~2% of a full replay — while snapshot memory stays bounded. The same
// value rtlfi uses per input draw.
const checkpointsPerCampaign = 24

// prepared holds everything the injections of a subject's campaigns
// share: the golden output (of type G), the instruction profile and — on
// the fast-forward path — the checkpoint trace. It is read-only once
// built, so concurrent workers and several campaigns on the same subject
// (e.g. bit-flip and syndrome models) reuse one preparation.
type prepared[G any] struct {
	golden  G
	profile Counts
	trace   *replay.Trace // nil when prepared without fast-forward
}

// Prepared is the shared preparation of an HPC workload's campaigns; see
// PrepareWorkload.
type Prepared = prepared[[]uint32]

// CNNPrepared is Prepared for a CNN campaign: one network/input pair's
// golden output, profile and checkpoint trace, shared across that pair's
// campaigns (bit-flip, syndrome and tile models alike).
type CNNPrepared = prepared[[]float32]

// prepare runs a subject's golden execution and, with record set, its
// fast-forward trace: ~checkpointsPerCampaign emulator snapshots plus the
// per-launch global-memory write-sets, verified bit-identical (same) to
// the plain golden run before it is trusted and then handed to seal for
// the subject's host-purity declaration. Without record the golden and
// profiling runs execute plainly, exactly as before the optimisation.
func prepare[G any](name string, run func(replay.Runner) (G, error), same func(a, b G) bool,
	noFastPath, record bool, seal func(*replay.Trace)) (*prepared[G], error) {

	plain := &replay.Plain{NoFastPath: noFastPath}
	golden, err := run(plain)
	if err != nil {
		return nil, fmt.Errorf("swfi: golden run of %s failed: %w", name, err)
	}
	if !record {
		p := &prepared[G]{golden: golden}
		_, err := run(&replay.Plain{Hooks: emu.Hooks{Post: func(ev *emu.Event) {
			p.profile[ev.Instr.Op] += uint64(ev.ActiveCount())
		}}})
		return p, err
	}
	// Injectable as the countable predicate: the trace's countable
	// coordinates then index exactly the dynamic instructions an injector
	// counts and targets.
	rec := replay.NewRecorder(plain.Res.DynThreadInstrs/checkpointsPerCampaign, Injectable)
	rec.NoFastPath = noFastPath
	recOut, err := run(rec)
	if err != nil {
		return nil, fmt.Errorf("swfi: checkpoint replay of %s failed: %w", name, err)
	}
	if !same(golden, recOut) {
		return nil, fmt.Errorf("swfi: checkpoint replay of %s diverged from golden run", name)
	}
	tr := rec.Finish()
	seal(tr)
	return &prepared[G]{golden: golden, profile: Counts(tr.Profile), trace: tr}, nil
}

// PrepareWorkload runs the workload's golden execution and records its
// fast-forward trace, so several campaigns on it can share one
// preparation (Campaign.Prepared).
func PrepareWorkload(w *apps.Workload) (*Prepared, error) {
	return prepareWorkload(w, false, true)
}

func prepareWorkload(w *apps.Workload, noFastPath, record bool) (*Prepared, error) {
	return prepare(w.Name, w.ExecuteWith, slices.Equal[[]uint32], noFastPath, record,
		func(tr *replay.Trace) { tr.HostPure = w.PureHost })
}

// PrepareCNN records a network/input pair's golden execution and
// fast-forward trace, so the three fault models can share one preparation
// (CNNCampaign.Prepared).
func PrepareCNN(net *cnn.Network, input []float32) (*CNNPrepared, error) {
	return prepareCNN(net, input, false, true)
}

func prepareCNN(net *cnn.Network, input []float32, noFastPath, record bool) (*CNNPrepared, error) {
	run := func(rt replay.Runner) ([]float32, error) { return net.RunWith(rt, input, nil) }
	return prepare(net.Name, run, floatsEqual, noFastPath, record,
		func(tr *replay.Trace) {
			// Network.RunWith's host is pure by construction: between
			// launches it only applies the tile corruption at the faulty
			// boundary itself and reads the arena solely after the last
			// launch. That also licenses comparing live-in words only at
			// reconvergence: corrupted activations parked in feature maps
			// no later layer reads must not block it.
			tr.HostPure = true
			off, words := net.OutputRegion()
			tr.ComputeLiveIn(off, words)
		})
}
