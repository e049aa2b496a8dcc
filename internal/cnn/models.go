package cnn

import (
	"math"

	"gpufi/internal/kasm"
	"gpufi/internal/stats"
)

// LeNetLite geometry: a LeNET-class classifier (conv/pool/conv/pool/FC
// with ReLU), scaled to a 16x16 input so injection campaigns run in
// minutes. Layer footprints are small — a corrupted 8x8 tile covers a
// large share of a feature map, the property behind the paper's finding
// that tile corruption wrecks "a significant part of the layer" in LeNET
// (§VI).
const (
	lenetIn   = 16
	lenetC1   = 4
	lenetC2   = 8
	lenetFCIn = lenetC2 * 4 * 4
	lenetOut  = 10
)

// NewLeNetLite constructs the classifier with deterministic weights.
func NewLeNetLite() *Network {
	nb := newNetBuilder("LeNetLite", 1, lenetIn, lenetIn, 0x1E4E7)
	var pending []pendingLayer
	alloc := func(words int) int {
		off := nb.actTop
		nb.actTop += words
		return off
	}

	// conv1: 1x16x16 -> 4x16x16, ReLU.
	c1Out := alloc(lenetC1 * lenetIn * lenetIn)
	w1 := nb.wAppend(lenetC1*1*9, 1*9)
	b1 := nb.bAppend(lenetC1)
	pending = append(pending, pendingLayer{
		name: "conv1", threads: lenetC1 * lenetIn * lenetIn,
		outOff: c1Out, outC: lenetC1, outH: lenetIn, outW: lenetIn,
		build: func(wb int32) *kasm.Program {
			return buildConv(convGeom{
				inC: 1, h: lenetIn, w: lenetIn, outC: lenetC1, act: actReLU,
				inOff: 0, outOff: int32(c1Out),
				wOff: wb + int32(w1), bOff: wb + int32(b1),
			})
		},
	})
	// pool1: 4x16x16 -> 4x8x8.
	p1Out := alloc(lenetC1 * 8 * 8)
	pending = append(pending, pendingLayer{
		name: "pool1", threads: lenetC1 * 8 * 8,
		outOff: p1Out, outC: lenetC1, outH: 8, outW: 8,
		build: func(int32) *kasm.Program {
			return buildPool(poolGeom{
				c: lenetC1, h: lenetIn, w: lenetIn,
				inOff: int32(c1Out), outOff: int32(p1Out),
			})
		},
	})
	// conv2: 4x8x8 -> 8x8x8, ReLU.
	c2Out := alloc(lenetC2 * 8 * 8)
	w2 := nb.wAppend(lenetC2*lenetC1*9, lenetC1*9)
	b2 := nb.bAppend(lenetC2)
	pending = append(pending, pendingLayer{
		name: "conv2", threads: lenetC2 * 8 * 8,
		outOff: c2Out, outC: lenetC2, outH: 8, outW: 8,
		build: func(wb int32) *kasm.Program {
			return buildConv(convGeom{
				inC: lenetC1, h: 8, w: 8, outC: lenetC2, act: actReLU,
				inOff: int32(p1Out), outOff: int32(c2Out),
				wOff: wb + int32(w2), bOff: wb + int32(b2),
			})
		},
	})
	// pool2: 8x8x8 -> 8x4x4.
	p2Out := alloc(lenetC2 * 4 * 4)
	pending = append(pending, pendingLayer{
		name: "pool2", threads: lenetC2 * 4 * 4,
		outOff: p2Out, outC: lenetC2, outH: 4, outW: 4,
		build: func(int32) *kasm.Program {
			return buildPool(poolGeom{
				c: lenetC2, h: 8, w: 8,
				inOff: int32(c2Out), outOff: int32(p2Out),
			})
		},
	})
	// fc: 128 -> 10 logits.
	fcOut := alloc(lenetOut)
	wf := nb.wAppend(lenetOut*lenetFCIn, lenetFCIn)
	bf := nb.bAppend(lenetOut)
	pending = append(pending, pendingLayer{
		name: "fc", threads: 32,
		outOff: fcOut, outC: lenetOut, outH: 1, outW: 1,
		build: func(wb int32) *kasm.Program {
			return buildFC(fcGeom{
				inN: lenetFCIn, outN: lenetOut,
				inOff: int32(p2Out), outOff: int32(fcOut),
				wOff: wb + int32(wf), bOff: wb + int32(bf),
			})
		},
	})
	return nb.finish(pending, lenetOut)
}

// Classify returns the argmax class of a logits vector.
func Classify(logits []float32) int {
	best := 0
	for i, v := range logits {
		if v > logits[best] {
			best = i
		}
	}
	return best
}

// LeNetInput synthesises a deterministic MNIST-like input: a smooth blob
// pattern selected by digit-like index.
func LeNetInput(variant int) []float32 {
	r := stats.NewRNG(0xD161 + uint64(variant)*977)
	img := make([]float32, lenetIn*lenetIn)
	// Superpose signed Gaussian blobs, normalised and zero-centred so
	// different variants drive different feature-map signs.
	for blob := 0; blob < 2+variant%4; blob++ {
		cx := r.Float64Range(2, 14)
		cy := r.Float64Range(2, 14)
		s := r.Float64Range(1.2, 4)
		amp := r.Float64Range(0.5, 1)
		if r.Bool() {
			amp = -amp
		}
		for y := 0; y < lenetIn; y++ {
			for x := 0; x < lenetIn; x++ {
				d2 := (float64(x)-cx)*(float64(x)-cx) + (float64(y)-cy)*(float64(y)-cy)
				img[y*lenetIn+x] += float32(amp * math.Exp(-d2/(2*s*s)))
			}
		}
	}
	var max float32
	for _, v := range img {
		if a := float32(math.Abs(float64(v))); a > max {
			max = a
		}
	}
	for i := range img {
		img[i] /= max
	}
	return img
}

// YoloLite geometry: a detection miniature (three convolutions with leaky
// ReLU, pooling between them, and a linear 5-channel prediction head over
// an 8x8 grid: objectness + 4 box parameters per cell). Feature maps are
// large relative to an 8x8 tile, mirroring YOLO's "even a fully corrupted
// 8x8 tile represents a small percentage of the matrix" (§VI).
const (
	yoloIn   = 32
	yoloC1   = 8
	yoloC2   = 16
	yoloOut  = 5 // objectness, dx, dy, w, h
	yoloGrid = 8
)

// NewYoloLite constructs the detector with deterministic weights.
func NewYoloLite() *Network {
	nb := newNetBuilder("YoloLite", 1, yoloIn, yoloIn, 0x101_0)
	var pending []pendingLayer
	alloc := func(words int) int {
		off := nb.actTop
		nb.actTop += words
		return off
	}

	// conv1: 1x32x32 -> 8x32x32, leaky.
	c1Out := alloc(yoloC1 * yoloIn * yoloIn)
	w1 := nb.wAppend(yoloC1*1*9, 9)
	b1 := nb.bAppend(yoloC1)
	pending = append(pending, pendingLayer{
		name: "conv1", threads: yoloC1 * yoloIn * yoloIn,
		outOff: c1Out, outC: yoloC1, outH: yoloIn, outW: yoloIn,
		build: func(wb int32) *kasm.Program {
			return buildConv(convGeom{
				inC: 1, h: yoloIn, w: yoloIn, outC: yoloC1, act: actLeaky,
				inOff: 0, outOff: int32(c1Out),
				wOff: wb + int32(w1), bOff: wb + int32(b1),
			})
		},
	})
	// pool1: 8x32x32 -> 8x16x16.
	p1Out := alloc(yoloC1 * 16 * 16)
	pending = append(pending, pendingLayer{
		name: "pool1", threads: yoloC1 * 16 * 16,
		outOff: p1Out, outC: yoloC1, outH: 16, outW: 16,
		build: func(int32) *kasm.Program {
			return buildPool(poolGeom{
				c: yoloC1, h: yoloIn, w: yoloIn,
				inOff: int32(c1Out), outOff: int32(p1Out),
			})
		},
	})
	// conv2: 8x16x16 -> 16x16x16, leaky.
	c2Out := alloc(yoloC2 * 16 * 16)
	w2 := nb.wAppend(yoloC2*yoloC1*9, yoloC1*9)
	b2 := nb.bAppend(yoloC2)
	pending = append(pending, pendingLayer{
		name: "conv2", threads: yoloC2 * 16 * 16,
		outOff: c2Out, outC: yoloC2, outH: 16, outW: 16,
		build: func(wb int32) *kasm.Program {
			return buildConv(convGeom{
				inC: yoloC1, h: 16, w: 16, outC: yoloC2, act: actLeaky,
				inOff: int32(p1Out), outOff: int32(c2Out),
				wOff: wb + int32(w2), bOff: wb + int32(b2),
			})
		},
	})
	// pool2: 16x16x16 -> 16x8x8.
	p2Out := alloc(yoloC2 * yoloGrid * yoloGrid)
	pending = append(pending, pendingLayer{
		name: "pool2", threads: yoloC2 * yoloGrid * yoloGrid,
		outOff: p2Out, outC: yoloC2, outH: yoloGrid, outW: yoloGrid,
		build: func(int32) *kasm.Program {
			return buildPool(poolGeom{
				c: yoloC2, h: 16, w: 16,
				inOff: int32(c2Out), outOff: int32(p2Out),
			})
		},
	})
	// head: 16x8x8 -> 5x8x8, linear.
	headOut := alloc(yoloOut * yoloGrid * yoloGrid)
	wh := nb.wAppend(yoloOut*yoloC2*9, yoloC2*9)
	bh := nb.bAppend(yoloOut)
	pending = append(pending, pendingLayer{
		name: "head", threads: yoloOut * yoloGrid * yoloGrid,
		outOff: headOut, outC: yoloOut, outH: yoloGrid, outW: yoloGrid,
		build: func(wb int32) *kasm.Program {
			return buildConv(convGeom{
				inC: yoloC2, h: yoloGrid, w: yoloGrid, outC: yoloOut, act: actNone,
				inOff: int32(p2Out), outOff: int32(headOut),
				wOff: wb + int32(wh), bOff: wb + int32(bh),
			})
		},
	})
	return nb.finish(pending, yoloOut*yoloGrid*yoloGrid)
}

// YoloInput synthesises a deterministic detection scene: bright boxes on
// a dim background.
func YoloInput(variant int) []float32 {
	r := stats.NewRNG(0x101D + uint64(variant)*331)
	img := make([]float32, yoloIn*yoloIn)
	for i := range img {
		img[i] = float32(r.Float64Range(0, 0.15))
	}
	for obj := 0; obj < 2+variant%2; obj++ {
		w := 4 + r.Intn(8)
		h := 4 + r.Intn(8)
		x0 := r.Intn(yoloIn - w)
		y0 := r.Intn(yoloIn - h)
		v := float32(r.Float64Range(0.7, 1))
		for y := y0; y < y0+h; y++ {
			for x := x0; x < x0+w; x++ {
				img[y*yoloIn+x] = v
			}
		}
	}
	return img
}

// Detection is one decoded YoloLite prediction.
type Detection struct {
	Cell       int // grid cell index
	Score      float64
	X, Y, W, H float64
}

// DecodeDetections thresholds the objectness map (sigmoid(o) > 0.5, i.e.
// raw o > 0) and decodes the box geometry.
func DecodeDetections(out []float32) []Detection {
	const cells = yoloGrid * yoloGrid
	var dets []Detection
	for cell := 0; cell < cells; cell++ {
		o := float64(out[cell]) // channel 0: objectness
		if o <= 0 {
			continue
		}
		cx, cy := float64(cell%yoloGrid), float64(cell/yoloGrid)
		dx := sigmoid(float64(out[cells+cell]))
		dy := sigmoid(float64(out[2*cells+cell]))
		wRaw := float64(out[3*cells+cell])
		hRaw := float64(out[4*cells+cell])
		dets = append(dets, Detection{
			Cell:  cell,
			Score: sigmoid(o),
			X:     (cx + dx) * 4, // grid cell = 4 input pixels
			Y:     (cy + dy) * 4,
			W:     2 * math.Exp(clamp(wRaw, -4, 4)),
			H:     2 * math.Exp(clamp(hRaw, -4, 4)),
		})
	}
	return dets
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// IoU computes intersection-over-union of two centre-format boxes.
func IoU(a, b Detection) float64 {
	ax0, ax1 := a.X-a.W/2, a.X+a.W/2
	ay0, ay1 := a.Y-a.H/2, a.Y+a.H/2
	bx0, bx1 := b.X-b.W/2, b.X+b.W/2
	by0, by1 := b.Y-b.H/2, b.Y+b.H/2
	iw := math.Min(ax1, bx1) - math.Max(ax0, bx0)
	ih := math.Min(ay1, by1) - math.Max(ay0, by0)
	if iw <= 0 || ih <= 0 {
		return 0
	}
	inter := iw * ih
	union := a.W*a.H + b.W*b.H - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Misdetection reports whether the faulty detections differ critically
// from the golden ones: a changed detection count, or any golden box
// whose best match falls below 0.5 IoU (the paper's criticality notion
// for object detection, §VI).
func Misdetection(golden, faulty []Detection) bool {
	if len(golden) != len(faulty) {
		return true
	}
	for _, g := range golden {
		best := 0.0
		for _, f := range faulty {
			if iou := IoU(g, f); iou > best {
				best = iou
			}
		}
		if best < 0.5 {
			return true
		}
	}
	return false
}
