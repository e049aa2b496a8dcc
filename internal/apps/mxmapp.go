package apps

import (
	"gpufi/internal/emu"
	"gpufi/internal/mxm"
)

// NewMxM builds the tiled matrix-multiplication application (Table III:
// "MxM, 512x512, Linear algebra") for n x n inputs.
func NewMxM(n int) *Workload {
	prog, err := mxm.Build(n)
	if err != nil {
		panic(err) // n is a compile-time choice in the suite
	}
	return &Workload{
		Name:   "MxM",
		Domain: "Linear algebra",
		Size:   sizeStr(n),
		run: func(rt Runner) ([]uint32, error) {
			g := arena(rt, mxm.GlobalWords(n))
			fillMatrix(g[:n*n], n*n, 0xA001, -2, 2)
			fillMatrix(g[n*n:2*n*n], n*n, 0xA002, -2, 2)
			err := rt.Launch(&emu.Launch{
				Prog: prog, Grid: mxm.Grid(n), Block: mxm.BlockThreads,
				Global: g, SharedWords: mxm.SharedWords,
			})
			if err != nil {
				return nil, err
			}
			return copyOut(g, int(mxm.COffset(n)), n*n), nil
		},
	}
}
