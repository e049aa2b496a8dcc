package swfi

import (
	"bytes"
	"fmt"
	"os"
	"testing"
	"unsafe"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/emu"
	"gpufi/internal/replay"
)

// yield is what a Player's D′ decided (replay.Player.Reach), summed over
// runs.
type yield struct{ Compared, Filtered, Whole uint64 }

// replayCase is one campaign of a suite app or a CNN: run executes the
// golden run and the campaign's first n injections, each on the Runner
// wrap builds around its Plain runner or Player, and sums the players'
// yields.
type replayCase struct {
	name string // "app/model"
	run  func(n int, wrap func(replay.Runner) replay.Runner) (yield, error)
}

// replayCases lists the bit-flip and syndrome campaigns of the six suite
// apps and of both CNNs, and the CNNs' tile campaigns, at seed 2021, on one
// preparation per app.
func replayCases(t *testing.T) []replayCase {
	t.Helper()
	db := testDB(t)
	var cases []replayCase
	for _, w := range apps.Suite() {
		prep, err := PrepareWorkload(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []FaultModel{ModelBitFlip, ModelSyndrome} {
			s := Campaign{Workload: w, Model: m, DB: db, Seed: 2021, Prepared: prep}.subject()
			cases = append(cases, replayCase{w.Name + "/" + modelNames[m], func(n int, wrap func(replay.Runner) replay.Runner) (yield, error) {
				return replayInjections(s, n, wrap)
			}})
		}
	}
	for _, c := range []struct {
		net   *cnn.Network
		input []float32
	}{{cnn.NewLeNetLite(), cnn.LeNetInput(0)}, {cnn.NewYoloLite(), cnn.YoloInput(0)}} {
		prep, err := PrepareCNN(c.net, c.input)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []CNNModel{CNNBitFlip, CNNSyndrome, CNNTile} {
			s := CNNCampaign{Net: c.net, Input: c.input, Model: m, DB: db, Seed: 2021, Prepared: prep}.subject()
			cases = append(cases, replayCase{c.net.Name + "/" + cnnModelNames[m], func(n int, wrap func(replay.Runner) replay.Runner) (yield, error) {
				return replayInjections(s, n, wrap)
			}})
		}
	}
	return cases
}

// replayInjections runs s's golden execution on a Plain runner and its
// first n injections on their players, each wrapped, as the campaign
// runner draws them. Failed injection runs are outcomes, not errors; a
// panic, such as hostCheck's, is.
func replayInjections[G any](s *subject[G], n int, wrap func(replay.Runner) replay.Runner) (y yield, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%v", v)
		}
	}()
	if _, err := s.exec(wrap(&replay.Plain{})); err != nil {
		return y, fmt.Errorf("golden run: %w", err)
	}
	tr, injectable := s.shared.trace, s.shared.profile.InjectableTotal()
	pool := &replay.Pool{}
	for i := range n {
		p, exec, _ := s.draw(tr, injectable, pool, s.rng(i))
		if p == nil {
			continue
		}
		exec(wrap(p))
		y.Compared += p.Reach.Compared
		y.Filtered += p.Reach.Filtered
		y.Whole += p.Reach.Whole
	}
	return y, nil
}

// hostCheck is a Runner that panics when host code changes an arena word
// between two launches without declaring it through replay.HostStore or
// replay.HostCopy; it passes the declarations on to the Runner it wraps.
// TestMain puts every injection run of this package's campaigns under it
// (checkRunner), and the oracle's runs too.
type hostCheck struct {
	rt       replay.Runner
	g, prev  []uint32 // the arena, and its image after the last launch
	declared []bool
	launches int
}

func newHostCheck(rt replay.Runner) replay.Runner { return &hostCheck{rt: rt} }

func (h *hostCheck) Arena(words int) []uint32 {
	h.g, h.declared = h.rt.Arena(words), make([]bool, words)
	return h.g
}

func (h *hostCheck) HostWrote(dst, src, n int) {
	for i := range n {
		h.declared[dst+i] = true
	}
	if hw, ok := h.rt.(replay.HostWriter); ok {
		hw.HostWrote(dst, src, n)
	}
}

func (h *hostCheck) Launch(l *emu.Launch) error {
	if !bytes.Equal(asBytes(h.prev), asBytes(h.g)) {
		for i, v := range h.prev {
			if v != h.g[i] && !h.declared[i] {
				panic(fmt.Sprintf("host code changed arena word %d before launch %d without declaring it", i, h.launches))
			}
		}
	}
	err := h.rt.Launch(l)
	h.launches++
	h.prev = append(h.prev[:0], h.g...)
	clear(h.declared)
	return err
}

func TestMain(m *testing.M) {
	checkRunner = newHostCheck
	os.Exit(m.Run())
}

// TestHostWritesDeclared holds the host code of every suite app and both
// CNNs to the Runner rule: between launches it writes the arena only
// through HostStore and HostCopy. The golden run and a fixed set of
// bit-flip, syndrome and tile injections run under hostCheck.
func TestHostWritesDeclared(t *testing.T) {
	for _, c := range replayCases(t) {
		if _, err := c.run(12, newHostCheck); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestReachYield pins, exactly, what D′ decided over the first 40
// injections of every campaign of replayCases: the post-fault units whose
// inputs it reached (value-compared), those it filtered, and the launches
// applied whole. The decisions never change a result, only what they
// cost, so a diff here is a change in what the replay filter saves. A PR
// that moves one on purpose updates the table and says why.
func TestReachYield(t *testing.T) {
	want := map[string]yield{
		"MxM/bitflip":        {Compared: 0, Filtered: 1120, Whole: 0},
		"MxM/syndrome":       {Compared: 5, Filtered: 1112, Whole: 0},
		"Lava/bitflip":       {Compared: 0, Filtered: 61, Whole: 0},
		"Lava/syndrome":      {Compared: 0, Filtered: 58, Whole: 0},
		"Quicksort/bitflip":  {Compared: 384, Filtered: 5276, Whole: 1160},
		"Quicksort/syndrome": {Compared: 892, Filtered: 6267, Whole: 1858},
		"Hotspot/bitflip":    {Compared: 875, Filtered: 1584, Whole: 154},
		"Hotspot/syndrome":   {Compared: 1207, Filtered: 1444, Whole: 142},
		"LUD/bitflip":        {Compared: 153, Filtered: 178, Whole: 42},
		"LUD/syndrome":       {Compared: 193, Filtered: 236, Whole: 27},
		"Gaussian/bitflip":   {Compared: 16914, Filtered: 410, Whole: 3},
		"Gaussian/syndrome":  {Compared: 11554, Filtered: 348, Whole: 3},
		"LeNetLite/bitflip":  {Compared: 26, Filtered: 391, Whole: 53},
		"LeNetLite/syndrome": {Compared: 53, Filtered: 438, Whole: 47},
		"LeNetLite/tile":     {Compared: 287, Filtered: 130, Whole: 3},
		"YoloLite/bitflip":   {Compared: 195, Filtered: 4162, Whole: 8},
		"YoloLite/syndrome":  {Compared: 316, Filtered: 5432, Whole: 4},
		"YoloLite/tile":      {Compared: 1232, Filtered: 2256, Whole: 0},
	}
	cases := replayCases(t)
	if len(cases) != len(want) {
		t.Fatalf("%d campaigns, %d pinned yields", len(cases), len(want))
	}
	for _, c := range cases {
		got, err := c.run(40, func(rt replay.Runner) replay.Runner { return rt })
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if w, ok := want[c.name]; !ok || got != w {
			t.Errorf("%s: yield %+v, want %+v", c.name, got, w)
		}
	}
}

// asBytes views words as bytes, so that bytes.Equal compares them at
// memory speed.
func asBytes(words []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 4*len(words))
}
