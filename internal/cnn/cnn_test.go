package cnn

import (
	"math"
	"testing"

	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/replay"
	"gpufi/internal/rtlfi"
	"gpufi/internal/stats"
	"gpufi/internal/syndrome"
)

func TestLeNetLiteRuns(t *testing.T) {
	nw := NewLeNetLite()
	out, err := nw.RunWith(&replay.Plain{}, LeNetInput(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != lenetOut {
		t.Fatalf("output = %d logits, want %d", len(out), lenetOut)
	}
	nonzero := 0
	for _, v := range out {
		if v != 0 {
			nonzero++
		}
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("logit is %v", v)
		}
	}
	if nonzero == 0 {
		t.Fatal("all logits zero")
	}
}

func TestLeNetLiteDeterministic(t *testing.T) {
	nw := NewLeNetLite()
	a, err := nw.RunWith(&replay.Plain{}, LeNetInput(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.RunWith(&replay.Plain{}, LeNetInput(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic logits")
		}
	}
}

func TestLeNetVariantsClassifyDifferently(t *testing.T) {
	nw := NewLeNetLite()
	classes := map[int]bool{}
	for v := 0; v < 6; v++ {
		out, err := nw.RunWith(&replay.Plain{}, LeNetInput(v), nil)
		if err != nil {
			t.Fatal(err)
		}
		classes[Classify(out)] = true
	}
	if len(classes) < 2 {
		t.Errorf("all variants map to one class %v — degenerate classifier", classes)
	}
}

func TestYoloLiteRunsAndDetects(t *testing.T) {
	nw := NewYoloLite()
	out, err := nw.RunWith(&replay.Plain{}, YoloInput(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != yoloOut*yoloGrid*yoloGrid {
		t.Fatalf("output = %d words", len(out))
	}
	dets := DecodeDetections(out)
	t.Logf("yolo golden detections: %d", len(dets))
	for _, d := range dets {
		if d.Score <= 0.5 || d.W <= 0 || d.H <= 0 {
			t.Errorf("bad detection %+v", d)
		}
	}
}

func TestConvMatchesHostReference(t *testing.T) {
	// Validate conv1 of LeNetLite against a host convolution.
	nw := NewLeNetLite()
	input := LeNetInput(2)
	g := make([]uint32, nw.Words)
	for i, v := range input {
		g[nw.inOff+i] = math.Float32bits(v)
	}
	copy(g[nw.wBase:], nw.weights)
	l := nw.Layers[0]
	if _, err := emu.Run(&emu.Launch{Prog: l.Prog, Grid: l.Grid, Block: l.Block, Global: g}); err != nil {
		t.Fatal(err)
	}
	weights := make([]float32, len(nw.weights))
	for i, b := range nw.weights {
		weights[i] = math.Float32frombits(b)
	}
	for co := 0; co < lenetC1; co++ {
		for y := 0; y < lenetIn; y++ {
			for x := 0; x < lenetIn; x++ {
				var acc float64 = float64(weights[lenetC1*9+co]) // bias after w1 block
				for ky := 0; ky < 3; ky++ {
					for kx := 0; kx < 3; kx++ {
						iy, ix := y+ky-1, x+kx-1
						if iy < 0 || iy >= lenetIn || ix < 0 || ix >= lenetIn {
							continue
						}
						acc += float64(input[iy*lenetIn+ix]) * float64(weights[co*9+ky*3+kx])
					}
				}
				if acc < 0 {
					acc = 0 // ReLU
				}
				got := float64(math.Float32frombits(g[l.OutOff+co*lenetIn*lenetIn+y*lenetIn+x]))
				if math.Abs(got-acc) > 1e-4*(1+math.Abs(acc)) {
					t.Fatalf("conv1[%d][%d][%d] = %v, want %v", co, y, x, got, acc)
				}
			}
		}
	}
}

func TestPoolTakesMaxima(t *testing.T) {
	nw := NewLeNetLite()
	input := LeNetInput(3)
	g := make([]uint32, nw.Words)
	for i, v := range input {
		g[i] = math.Float32bits(v)
	}
	copy(g[nw.wBase:], nw.weights)
	conv1, pool1 := nw.Layers[0], nw.Layers[1]
	for _, l := range []Layer{conv1, pool1} {
		if _, err := emu.Run(&emu.Launch{Prog: l.Prog, Grid: l.Grid, Block: l.Block, Global: g}); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < lenetC1; c++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				base := conv1.OutOff + c*lenetIn*lenetIn + 2*y*lenetIn + 2*x
				m := math.Float32frombits(g[base])
				for _, off := range []int{1, lenetIn, lenetIn + 1} {
					if v := math.Float32frombits(g[base+off]); v > m {
						m = v
					}
				}
				got := math.Float32frombits(g[pool1.OutOff+c*64+y*8+x])
				if got != m {
					t.Fatalf("pool[%d][%d][%d] = %v, want %v", c, y, x, got, m)
				}
			}
		}
	}
}

func TestTileInjectionChangesOutput(t *testing.T) {
	nw := NewLeNetLite()
	input := LeNetInput(0)
	golden, err := nw.RunWith(&replay.Plain{}, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj := &TileInjection{
		Layer: 0, Channel: 1, Row: 4, Col: 4,
		Corr: allTileCorruption(2.0),
	}
	faulty, err := nw.RunWith(&replay.Plain{}, input, inj)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range golden {
		if golden[i] != faulty[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("whole-tile 200% corruption of conv1 left logits unchanged")
	}
}

func allTileCorruption(rel float64) syndrome.TileCorruption {
	var c syndrome.TileCorruption
	c.Pattern = faults.PatAll
	for i := range c.Mask {
		c.Mask[i] = true
		c.RelErr[i] = rel
	}
	return c
}

func TestTileInjectionLastLayerAffectsExactWords(t *testing.T) {
	nw := NewYoloLite()
	input := YoloInput(1)
	golden, err := nw.RunWith(&replay.Plain{}, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	var corr syndrome.TileCorruption
	corr.Mask[0] = true // element (0,0) of the tile
	corr.RelErr[0] = 1.0
	inj := &TileInjection{Layer: len(nw.Layers) - 1, Channel: 0, Row: 0, Col: 0, Corr: corr}
	faulty, err := nw.RunWith(&replay.Plain{}, input, inj)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := range golden {
		if golden[i] != faulty[i] {
			changed++
			if i != 0 {
				t.Errorf("unexpected change at output %d", i)
			}
		}
	}
	if changed != 1 {
		t.Errorf("changed %d words, want exactly 1", changed)
	}
}

func TestRandomTileInjectionFromDB(t *testing.T) {
	db := syndrome.New()
	// Synthetic t-MxM pool.
	res := &rtlfi.TMXMResult{
		Spec:        rtlfi.TMXMSpec{Module: faults.ModSched, Kind: mxm.TileRandom, Seed: 3},
		PatternErrs: map[faults.Pattern][]float64{},
	}
	pl := stats.PowerLaw{Alpha: 2.1, Xmin: 0.01}
	r0 := stats.NewRNG(4)
	for i := 0; i < 50; i++ {
		res.Tally.Add(faults.SDC, 8)
		res.Patterns[faults.PatRow]++
		for k := 0; k < 8; k++ {
			res.PatternErrs[faults.PatRow] = append(res.PatternErrs[faults.PatRow], pl.Sample(r0))
		}
	}
	db.AddTMXM(res)
	nw := NewLeNetLite()
	r := stats.NewRNG(5)
	inj, ok := nw.RandomTileInjection(db, r)
	if !ok {
		t.Fatal("no injection drawn")
	}
	if inj.Layer < 0 || inj.Layer >= len(nw.Layers) {
		t.Errorf("layer %d out of range", inj.Layer)
	}
	if inj.Corr.Count() == 0 {
		t.Error("empty corruption")
	}
}

func TestClassifyAndIoU(t *testing.T) {
	if Classify([]float32{0.1, 3, 2}) != 1 {
		t.Error("argmax wrong")
	}
	a := Detection{X: 10, Y: 10, W: 4, H: 4}
	if got := IoU(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self IoU = %v", got)
	}
	b := Detection{X: 100, Y: 100, W: 4, H: 4}
	if IoU(a, b) != 0 {
		t.Error("disjoint IoU != 0")
	}
	c := Detection{X: 12, Y: 10, W: 4, H: 4} // half overlap in x
	if got := IoU(a, c); got <= 0.3 || got >= 0.4 {
		t.Errorf("partial IoU = %v, want ~1/3", got)
	}
}

func TestMisdetection(t *testing.T) {
	g := []Detection{{X: 10, Y: 10, W: 4, H: 4, Score: 0.9}}
	same := []Detection{{X: 10.2, Y: 10, W: 4, H: 4, Score: 0.8}}
	if Misdetection(g, same) {
		t.Error("near-identical boxes flagged as misdetection")
	}
	moved := []Detection{{X: 20, Y: 20, W: 4, H: 4, Score: 0.9}}
	if !Misdetection(g, moved) {
		t.Error("moved box not flagged")
	}
	if !Misdetection(g, nil) {
		t.Error("lost detection not flagged")
	}
}

func TestNetworkProfileIsFFMADominated(t *testing.T) {
	// Fig. 3: CNNs are dominated by FP32 (FFMA) work.
	var counts [isa.NumOpcodes]uint64
	hooks := emu.Hooks{Post: func(ev *emu.Event) {
		counts[ev.Instr.Op] += uint64(ev.ActiveCount())
	}}
	nw := NewLeNetLite()
	if _, err := nw.RunWith(&replay.Plain{Hooks: hooks}, LeNetInput(0), nil); err != nil {
		t.Fatal(err)
	}
	var total, ffma uint64
	for op, c := range counts {
		total += c
		if isa.Opcode(op) == isa.OpFFMA {
			ffma += c
		}
	}
	share := float64(ffma) / float64(total)
	t.Logf("LeNetLite FFMA share = %.2f (total %d thread-instrs)", share, total)
	if share < 0.15 {
		t.Errorf("FFMA share %.2f implausibly low for a CNN", share)
	}
}

func TestTileClamping(t *testing.T) {
	if clampTile(5, 4) != 0 {
		t.Error("tile must clamp to 0 in small dimensions")
	}
	if got := clampTile(9, 16); got < 0 || got > 8 {
		t.Errorf("clamp = %d", got)
	}
	_ = mxm.Tile
}
