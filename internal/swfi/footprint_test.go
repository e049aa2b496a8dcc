package swfi

import (
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/replay"
)

// footprint is what a preparation's trace holds, in words and warps.
type footprint struct {
	Ckpts      int // checkpoints
	DeltaWords int // checkpoint Delta words
	LiveWarps  int // warp states held by checkpoint snapshots
	WriteWords int // unit write words
	InputWords int // unit input words
}

func traceFootprint(tr *replay.Trace) footprint {
	f := footprint{Ckpts: len(tr.Ckpts)}
	for _, ck := range tr.Ckpts {
		f.DeltaWords += len(ck.Delta)
		f.LiveWarps += ck.Snap.Warps()
	}
	for _, l := range tr.Launches {
		for _, u := range l.Units {
			f.WriteWords += len(u.Writes)
			f.InputWords += len(u.In.Vals)
		}
	}
	return f
}

// TestTraceFootprint pins, exactly, what the preparation of each suite app
// and both CNNs keeps in memory: checkpoints, the words their Deltas hold,
// the warp states their snapshots hold (a full register file each), and
// the words the unit records hold. Preparation is deterministic, so a
// change to any of them is a change to the Recorder or the emulator's
// snapshots: a memory regression shows here as a counter diff, as
// simulated work does in TestEngineCounters. A PR that moves one on
// purpose updates the table and says why.
func TestTraceFootprint(t *testing.T) {
	want := map[string]footprint{
		"MxM":       {Ckpts: 24, DeltaWords: 50_688, LiveWarps: 40, WriteWords: 4_096, InputWords: 65_536},
		"Lava":      {Ckpts: 24, DeltaWords: 4_736, LiveWarps: 24, WriteWords: 512, InputWords: 2_048},
		"Quicksort": {Ckpts: 24, DeltaWords: 373, LiveWarps: 136, WriteWords: 23_132, InputWords: 23_116},
		"Hotspot":   {Ckpts: 24, DeltaWords: 15_872, LiveWarps: 136, WriteWords: 16_384, InputWords: 110_720},
		"LUD":       {Ckpts: 24, DeltaWords: 224, LiveWarps: 43, WriteWords: 1_920, InputWords: 4_480},
		"Gaussian":  {Ckpts: 24, DeltaWords: 4_065, LiveWarps: 24, WriteWords: 11_904, InputWords: 24_695},
		"LeNetLite": {Ckpts: 24, DeltaWords: 8_074, LiveWarps: 24, WriteWords: 1_930, InputWords: 8_346},
		"YoloLite":  {Ckpts: 24, DeltaWords: 51_776, LiveWarps: 24, WriteWords: 15_680, InputWords: 117_498},
	}
	type subject struct {
		name    string
		prepare func() (*replay.Trace, error)
	}
	var subjects []subject
	for _, w := range apps.Suite() {
		subjects = append(subjects, subject{w.Name, func() (*replay.Trace, error) {
			p, err := PrepareWorkload(w)
			if err != nil {
				return nil, err
			}
			return p.trace, nil
		}})
	}
	for _, n := range []struct {
		net   *cnn.Network
		input []float32
	}{{cnn.NewLeNetLite(), cnn.LeNetInput(0)}, {cnn.NewYoloLite(), cnn.YoloInput(0)}} {
		subjects = append(subjects, subject{n.net.Name, func() (*replay.Trace, error) {
			p, err := PrepareCNN(n.net, n.input)
			if err != nil {
				return nil, err
			}
			return p.trace, nil
		}})
	}
	if len(subjects) != len(want) {
		t.Fatalf("%d subjects, %d pinned footprints", len(subjects), len(want))
	}
	for _, s := range subjects {
		tr, err := s.prepare()
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		got := traceFootprint(tr)
		if w, ok := want[s.name]; !ok || got != w {
			t.Errorf("%s: footprint %+v, want %+v", s.name, got, w)
		}
	}
}
