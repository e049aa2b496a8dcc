package apps

import (
	"slices"
	"testing"

	"gpufi/internal/cnn"
	"gpufi/internal/emu"
	"gpufi/internal/isa"
	"gpufi/internal/replay"
)

// freshLaunches is a Runner that fails the test when a launch arrives with
// a field a Runner sets already set: host code reuses one emu.Launch per
// run, so each launch must start from a fresh value, whatever the Runner
// set on the one before. It passes host-write declarations on.
type freshLaunches struct {
	replay.Runner
	t        *testing.T
	name     string
	launches int
}

func (f *freshLaunches) HostWrote(dst, src, n int) {
	if hw, ok := f.Runner.(replay.HostWriter); ok {
		hw.HostWrote(dst, src, n)
	}
}

func (f *freshLaunches) Launch(l *emu.Launch) error {
	if h := l.Hooks; h.Post != nil || h.OnArm != nil || h.ArmAfter != 0 ||
		l.Mem != nil || l.Replay != nil || l.BlockDone != nil || l.Attempt != nil {
		f.t.Errorf("%s: launch %d arrives with Hooks, Mem, Replay, BlockDone or Attempt set", f.name, f.launches)
	}
	f.launches++
	return f.Runner.Launch(l)
}

// TestLaunchesStartFresh runs every suite app and both CNNs under a plain
// Runner, a Recorder and an instrumented Player, each wrapped in
// freshLaunches; the Player, whose hook changes nothing, must reproduce
// the golden output.
func TestLaunchesStartFresh(t *testing.T) {
	type subject struct {
		name string
		run  func(replay.Runner) ([]uint32, error)
	}
	var subjects []subject
	for _, w := range Suite() {
		subjects = append(subjects, subject{w.Name, w.ExecuteWith})
	}
	for _, c := range []struct {
		net   *cnn.Network
		input []float32
	}{{cnn.NewLeNetLite(), cnn.LeNetInput(0)}, {cnn.NewYoloLite(), cnn.YoloInput(0)}} {
		subjects = append(subjects, subject{c.net.Name, func(rt replay.Runner) ([]uint32, error) {
			out, err := c.net.RunWith(rt, c.input, nil)
			words := make([]uint32, len(out))
			for i, v := range out {
				words[i] = f32(v)
			}
			return words, err
		}})
	}
	for _, s := range subjects {
		wrap := func(rt replay.Runner) *freshLaunches { return &freshLaunches{Runner: rt, t: t, name: s.name} }
		plain := &replay.Plain{}
		golden, err := s.run(wrap(plain))
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		rec := replay.NewRecorder(plain.Res.DynThreadInstrs/8+1, func(isa.Opcode) bool { return true })
		if _, err := s.run(wrap(rec)); err != nil {
			t.Fatalf("%s recorded: %v", s.name, err)
		}
		tr := rec.Finish()
		player := replay.NewPlayer(tr, tr.Count/2, emu.Hooks{Post: func(*emu.Event) {}}, nil, nil, nil)
		fw := wrap(player)
		out, err := s.run(fw)
		if err != nil {
			t.Fatalf("%s played: %v", s.name, err)
		}
		if !slices.Equal(out, golden) {
			t.Errorf("%s: a Player whose hook changes nothing computed a different output", s.name)
		}
		if fw.launches != len(tr.Launches) {
			t.Errorf("%s: the Player saw %d launches, the trace holds %d", s.name, fw.launches, len(tr.Launches))
		}
	}
}
