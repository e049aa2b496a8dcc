package mxm

import (
	"gpufi/internal/faults"
	"gpufi/internal/fp32"
)

// Corruption describes how a faulty tile output differs from the golden
// one: the per-element corruption map and relative errors.
type Corruption struct {
	N       int       // matrix dimension
	Bad     []bool    // per element, row-major
	RelErrs []float64 // relative error of each corrupted element
	Count   int
}

// Compare diffs a faulty output matrix against the golden one.
func Compare(golden, faulty []float32, n int) Corruption {
	c := Corruption{N: n, Bad: make([]bool, n*n)}
	for i := range golden {
		gb, fb := golden[i], faulty[i]
		same := gb == fb || (gb != gb && fb != fb) // NaN == NaN for this purpose
		if !same {
			c.Bad[i] = true
			c.Count++
			c.RelErrs = append(c.RelErrs, fp32.RelErr(float64(gb), float64(fb)))
		}
	}
	return c
}

// Classify assigns the spatial pattern of the corruption following the
// taxonomy of Fig. 8: single, row, column, row+column, block, random, all.
func (c Corruption) Classify() faults.Pattern {
	switch {
	case c.Count == 0:
		return faults.PatSingle // callers must check Count first
	case c.Count == 1:
		return faults.PatSingle
	}
	n := c.N
	// "All (or almost all) elements corrupted".
	if c.Count >= n*n*7/8 {
		return faults.PatAll
	}

	rows := make([]int, n)
	cols := make([]int, n)
	for i, bad := range c.Bad {
		if bad {
			rows[i/n]++
			cols[i%n]++
		}
	}
	nRows, nCols := 0, 0
	fullRow, fullCol := -1, -1
	for i := 0; i < n; i++ {
		if rows[i] > 0 {
			nRows++
			if rows[i] > 1 {
				fullRow = i
			}
		}
		if cols[i] > 0 {
			nCols++
			if cols[i] > 1 {
				fullCol = i
			}
		}
	}
	switch {
	case nRows == 1:
		return faults.PatRow
	case nCols == 1:
		return faults.PatCol
	}
	// Row+column: every corrupted element lies on one row or one column,
	// and both carry at least two elements.
	if fullRow >= 0 && fullCol >= 0 {
		onCross := true
		for i, bad := range c.Bad {
			if bad && i/n != fullRow && i%n != fullCol {
				onCross = false
				break
			}
		}
		if onCross && rows[fullRow] > 1 && cols[fullCol] > 1 {
			return faults.PatRowCol
		}
	}
	// Block: the corrupted elements densely fill their bounding box.
	minR, maxR, minC, maxC := n, -1, n, -1
	for i, bad := range c.Bad {
		if !bad {
			continue
		}
		r, cc := i/n, i%n
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
		if cc < minC {
			minC = cc
		}
		if cc > maxC {
			maxC = cc
		}
	}
	area := (maxR - minR + 1) * (maxC - minC + 1)
	if area >= 4 && float64(c.Count) >= 0.75*float64(area) {
		return faults.PatBlock
	}
	return faults.PatRandom
}
