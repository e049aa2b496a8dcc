package rtlfi

import (
	"math"

	"gpufi/internal/rtl"
)

// Counters is the RTL campaign engine's accounting over one or more
// campaigns: how the injections were resolved and what that cost in
// simulated cycles. Campaign results embed it, fabric results and job
// journals carry it, and status views aggregate it with Merge.
type Counters struct {
	// Injections is the number of faults the counters cover. It stays
	// out of the JSON form: wherever counters are journalled a tally
	// beside them carries the same count, and the status views that have
	// no tally add the key back themselves.
	Injections int `json:"-"`

	// SimCycles counts the cycles actually simulated across all faulty
	// runs; SkippedCycles counts the cycles the engine provably avoided:
	// golden-prefix cycles restored from a checkpoint, golden-tail cycles
	// pruned when a masked run reconverged with the golden state, the
	// whole goldenCycles replay of every dead-pruned fault, and the stall
	// cycles of hung runs — a wedged scheduler repeats one cycle until the
	// watchdog, and the machine moves its clock there instead of stepping
	// them (rtl.Machine.SkippedCycles; the only skipped cycles left with
	// every accelerator off). Their sum is what a naive engine stepping every
	// cycle of every faulty run would have simulated, in every engine mode.
	SimCycles     uint64 `json:"sim_cycles"`
	SkippedCycles uint64 `json:"skipped_cycles"`

	// PrunedFaults counts injections classified Masked by the dead-site
	// liveness analysis alone, with zero simulation (they skip even the
	// checkpoint restore). Always 0 under NoPrune.
	PrunedFaults uint64 `json:"pruned_faults"`

	// Deprecated: always 0; kept for bench/ and old journals until ROADMAP 1(a).
	CollapsedFaults uint64 `json:"collapsed_faults"`

	// VectorFaults counts injections simulated as lanes of a bit-parallel
	// march rather than on a scalar machine of their own; Marches counts
	// the marches (shared golden replays) that carried them. Always 0
	// under NoBitParallel.
	VectorFaults uint64 `json:"vector_faults"`
	Marches      uint64 `json:"marches"`
}

// Merge accumulates another campaign's (or worker's) counters.
func (c *Counters) Merge(o Counters) {
	c.Injections += o.Injections
	c.SimCycles += o.SimCycles
	c.SkippedCycles += o.SkippedCycles
	c.PrunedFaults += o.PrunedFaults
	c.VectorFaults += o.VectorFaults
	c.Marches += o.Marches
}

// ReplaySpeedup returns total fault-run cycles over cycles actually
// simulated — the combined effect of every accelerator layer. 1.0 when
// nothing was skipped; +Inf when every fault was pruned outright.
func (c Counters) ReplaySpeedup() float64 {
	if c.SimCycles == 0 {
		if c.SkippedCycles == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(c.SimCycles+c.SkippedCycles) / float64(c.SimCycles)
}

// share returns n as a fraction of the covered injections.
func (c Counters) share(n uint64) float64 {
	if c.Injections == 0 {
		return 0
	}
	return float64(n) / float64(c.Injections)
}

// PruneRate returns the share of injections classified by dead-site
// pruning alone.
func (c Counters) PruneRate() float64 { return c.share(c.PrunedFaults) }

// VectorRate returns the share of injections simulated as bit-parallel
// march lanes.
func (c Counters) VectorRate() float64 { return c.share(c.VectorFaults) }

// LaneOccupancy returns the mean fill of the marches: vector faults over
// marched lane capacity (rtl.VecMaxLanes faulty lanes per march). 0 when
// no march ran.
func (c Counters) LaneOccupancy() float64 {
	if c.Marches == 0 {
		return 0
	}
	return float64(c.VectorFaults) / float64(c.Marches*rtl.VecMaxLanes)
}
