package rtlfi

import (
	"sort"

	"gpufi/internal/rtl"
)

// checkpointsPerRun bounds the golden-prefix snapshots recorded per input
// draw: newPlan spaces them every max(cycles/checkpointsPerRun, 1) cycles
// of the campaign program's golden length. Faulty runs fast-forward to
// the latest checkpoint at or before their injection cycle, so the
// residual golden prefix re-simulated per fault averages
// goldenCycles/(2*checkpointsPerRun) — ~2% of a full replay — while the
// snapshot memory stays bounded. The same snapshots double as
// reconvergence probes: a faulty run whose state matches the golden
// checkpoint at a boundary is pruned there, so Masked runs (the vast
// majority) also skip most of their post-injection tail.
const checkpointsPerRun = 24

// ckptStore holds one input draw's golden-prefix snapshots in ascending
// cycle order. add is the checkpoint sink of the draw's one golden run
// (prepare), so the store is written once, while that run executes, and
// is read-only afterwards: workers restore from it concurrently without
// synchronisation. A snapshot shares each image that did not change
// since the one before it, so the store costs the state the run changed
// between checkpoints, not 25 whole machines. The interval is only a
// spacing; at and before hold for any draw length.
type ckptStore struct {
	snaps []*rtl.Snapshot
	every uint64 // checkpoint interval in cycles
}

func (c *ckptStore) add(s *rtl.Snapshot) { c.snaps = append(c.snaps, s) }

// at returns the golden snapshot captured at exactly cycle, or nil.
// RunFromPruned uses it to test faulty runs for golden reconvergence at
// checkpoint-aligned boundaries.
func (c *ckptStore) at(cycle uint64) *rtl.Snapshot {
	if c.every == 0 || cycle%c.every != 0 {
		return nil
	}
	// Snapshots sit at exactly i*every; boundaries past the golden run's
	// end (reachable only by hanging faulty runs) have no snapshot.
	if i := int(cycle / c.every); i < len(c.snaps) && c.snaps[i].Cycle() == cycle {
		return c.snaps[i]
	}
	return nil
}

// before returns the latest checkpoint captured at or before cycle, or
// nil when none qualifies. Fault cycles are drawn from [0, goldenCycles)
// and a checkpoint exists at cycle 0, so campaigns always get a hit.
func (c *ckptStore) before(cycle uint64) *rtl.Snapshot {
	i := sort.Search(len(c.snaps), func(i int) bool { return c.snaps[i].Cycle() > cycle }) - 1
	if i < 0 {
		return nil
	}
	return c.snaps[i]
}
