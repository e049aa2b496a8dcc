package cnn

import (
	"fmt"
	"math"

	"gpufi/internal/emu"
	"gpufi/internal/kasm"
	"gpufi/internal/mxm"
	"gpufi/internal/replay"
	"gpufi/internal/stats"
	"gpufi/internal/syndrome"
)

// Layer is one network stage with its kernel and memory map.
type Layer struct {
	Name   string
	Prog   *kasm.Program
	Grid   int
	Block  int
	OutOff int // word offset of the layer's output feature map
	OutC   int
	OutH   int
	OutW   int
}

// Network is a runnable CNN: an activation arena, a weight image and the
// layer sequence.
type Network struct {
	Name    string
	Layers  []Layer
	Words   int      // total global image size
	weights []uint32 // weight/bias image appended after the activations
	wBase   int      // word offset of the weight image
	inOff   int
	inWords int
	outOff  int
	outN    int
}

// OutputRegion returns the arena region the host reads after the last
// launch — the seed for the dead-site liveness analysis.
func (n *Network) OutputRegion() (off, words int) { return n.outOff, n.outN }

// TileInjection corrupts an 8x8 tile of one layer's output feature map
// after that layer completes — the software realisation of the t-MxM RTL
// fault model (§IV-B: "The fault injector picks a random tile during the
// execution of a random CNN layer and modifies its output elements
// according to the syndrome").
type TileInjection struct {
	Layer   int
	Channel int
	Row     int
	Col     int
	Corr    syndrome.TileCorruption
	NegSign bool
}

// RunWith executes the network on the input activations on a launch
// runner — a replay.Plain (with or without hooks), a replay.Recorder to
// capture a fast-forward trace, or a replay.Player to fast-forward an
// injection run. inj, when non-nil, applies the tile corruption; it is
// applied by host code between launches, so a Player that skips all
// pre-injection layers via recorded write-sets reproduces a full run
// bit-identically. The returned slice holds the network's raw output
// (logits or detection maps).
func (n *Network) RunWith(rt replay.Runner, input []float32, inj *TileInjection) ([]float32, error) {
	if len(input) != n.inWords {
		return nil, fmt.Errorf("cnn %s: input %d words, want %d", n.Name, len(input), n.inWords)
	}
	g := rt.Arena(n.Words)
	for i, v := range input {
		g[n.inOff+i] = math.Float32bits(v)
	}
	copy(g[n.wBase:], n.weights)
	var launch emu.Launch // one per run, assigned whole before each launch
	for li := range n.Layers {
		l := &n.Layers[li]
		launch = emu.Launch{Prog: l.Prog, Grid: l.Grid, Block: l.Block, Global: g}
		if err := rt.Launch(&launch); err != nil {
			return nil, fmt.Errorf("cnn %s layer %s: %w", n.Name, l.Name, err)
		}
		if inj != nil && inj.Layer == li {
			n.applyTile(rt, g, l, inj)
		}
	}
	out := make([]float32, n.outN)
	for i := range out {
		out[i] = math.Float32frombits(g[n.outOff+i])
	}
	return out, nil
}

// applyTile corrupts the 8x8 tile of the layer output.
func (n *Network) applyTile(rt replay.Runner, g []uint32, l *Layer, inj *TileInjection) {
	ch := inj.Channel % l.OutC
	r0 := clampTile(inj.Row, l.OutH)
	c0 := clampTile(inj.Col, l.OutW)
	for i, bad := range inj.Corr.Mask {
		if !bad {
			continue
		}
		dr, dc := i/mxm.Tile, i%mxm.Tile
		r, c := r0+dr, c0+dc
		if r >= l.OutH || c >= l.OutW {
			continue
		}
		idx := l.OutOff + ch*l.OutH*l.OutW + r*l.OutW + c
		replay.HostStore(rt, g, idx, syndrome.ApplyRelErrF32(g[idx], inj.Corr.RelErr[i], inj.NegSign))
	}
}

// clampTile positions an 8x8 tile origin inside a dimension that may be
// smaller than the tile.
func clampTile(pos, dim int) int {
	if dim <= mxm.Tile {
		return 0
	}
	max := dim - mxm.Tile
	if pos < 0 {
		pos = 0
	}
	return pos % (max + 1)
}

// RandomTileInjection draws a uniformly placed tile corruption for the
// network from the syndrome database. ok is false when the database holds
// no t-MxM characterisation.
func (n *Network) RandomTileInjection(db *syndrome.DB, r *stats.RNG) (*TileInjection, bool) {
	corr, ok := db.SampleTile(r)
	if !ok {
		return nil, false
	}
	// Tiles corrupt convolution outputs (the MxM-equivalent layers):
	// exclude the final layer index only if there are alternatives.
	li := r.Intn(len(n.Layers))
	l := &n.Layers[li]
	return &TileInjection{
		Layer:   li,
		Channel: r.Intn(l.OutC),
		Row:     r.Intn(maxi(1, l.OutH-mxm.Tile+1)),
		Col:     r.Intn(maxi(1, l.OutW-mxm.Tile+1)),
		Corr:    corr,
		NegSign: r.Bool(),
	}, true
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// netBuilder accumulates layers and the weight image.
type netBuilder struct {
	n       *Network
	actTop  int // activation arena watermark
	weights []float32
	rng     *stats.RNG
}

func newNetBuilder(name string, inC, inH, inW int, seed uint64) *netBuilder {
	nb := &netBuilder{
		n:   &Network{Name: name, inOff: 0, inWords: inC * inH * inW},
		rng: stats.NewRNG(seed),
	}
	nb.actTop = nb.n.inWords
	return nb
}

// wAppend adds He-style uniform weights to the weight image and returns
// their offset relative to the weight base.
func (nb *netBuilder) wAppend(count, fanIn int) int {
	scale := math.Sqrt(3.0 / float64(fanIn))
	off := len(nb.weights)
	for i := 0; i < count; i++ {
		nb.weights = append(nb.weights, float32(nb.rng.Float64Range(-scale, scale)))
	}
	return off
}

// bAppend adds small biases.
func (nb *netBuilder) bAppend(count int) int {
	off := len(nb.weights)
	for i := 0; i < count; i++ {
		nb.weights = append(nb.weights, float32(nb.rng.Float64Range(-0.05, 0.05)))
	}
	return off
}

// finalize resolves weight offsets (which depend on the arena size) by
// rebuilding layer programs through the provided closures.
type pendingLayer struct {
	name             string
	build            func(wBase int32) *kasm.Program
	threads          int
	outOff           int
	outC, outH, outW int
}

func (nb *netBuilder) finish(pending []pendingLayer, outN int) *Network {
	n := nb.n
	n.wBase = nb.actTop
	n.Words = nb.actTop + len(nb.weights)
	n.weights = make([]uint32, len(nb.weights))
	for i, v := range nb.weights {
		n.weights[i] = math.Float32bits(v)
	}
	for _, pl := range pending {
		block := 128
		if pl.threads < block {
			block = pl.threads
		}
		grid := (pl.threads + block - 1) / block
		n.Layers = append(n.Layers, Layer{
			Name: pl.name, Prog: pl.build(int32(n.wBase)),
			Grid: grid, Block: block,
			OutOff: pl.outOff, OutC: pl.outC, OutH: pl.outH, OutW: pl.outW,
		})
	}
	last := n.Layers[len(n.Layers)-1]
	n.outOff = last.OutOff
	n.outN = outN
	return n
}
