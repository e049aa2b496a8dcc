package rtlfi

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// This file renders the two report artefacts of §IV-A: the general report
// ("the effect (SDC, DUE, Masked) of each injected fault based on the
// characterized instruction, the input value range, and the target
// module") and the detailed report ("the location of the injected fault,
// the golden value, the faulty value, the number of affected bits, the
// number of affected threads ...").

// WriteGeneralReport writes one campaign's general-report row as
// readable text, including the engine's cycle accounting: cycles
// simulated, cycles provably skipped (fast-forward and pruning), faults
// classified by dead-site pruning alone, faults marched bit-parallel, and
// the derived ratios.
func (r *Result) WriteGeneralReport(w io.Writer) error {
	t := r.Tally
	_, err := fmt.Fprintf(w,
		"campaign op=%s range=%s module=%s injections=%d masked=%d sdc_single=%d sdc_multi=%d due=%d avf_sdc=%.5f avf_due=%.5f avg_threads=%.2f sim_cycles=%d skipped_cycles=%d pruned=%d prune_rate=%.3f vectorized=%d vector_rate=%.3f lane_occupancy=%.3f replay_speedup=%.2f\n",
		r.Spec.Op, r.Spec.Range, r.Spec.Module,
		t.Injections, t.Maskeds, t.SDCSingle, t.SDCMulti, t.DUEs,
		t.AVFSDC(), t.AVFDUE(), t.AvgThreads(),
		r.SimCycles, r.SkippedCycles, r.PrunedFaults, r.PruneRate(),
		r.VectorFaults, r.VectorRate(), r.LaneOccupancy(), r.ReplaySpeedup())
	return err
}

// DetailedHeader is the CSV header of the detailed report. Exactly one
// of thread and word is -1 per record: thread identifies the first
// corrupted thread output, word the first corrupted memory word when the
// corruption was found only by the fallback memory scan.
var DetailedHeader = []string{
	"op", "range", "module", "field", "bit", "cycle",
	"thread", "word", "golden", "faulty", "bits_wrong", "threads", "rel_err",
}

// WriteDetailedReport writes every SDC's detailed record as CSV.
func (r *Result) WriteDetailedReport(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(DetailedHeader); err != nil {
		return err
	}
	for _, d := range r.Details {
		rec := []string{
			r.Spec.Op.String(),
			r.Spec.Range.String(),
			r.Spec.Module.String(),
			d.FieldName,
			strconv.Itoa(d.Fault.Bit),
			strconv.FormatUint(d.Fault.Cycle, 10),
			strconv.Itoa(d.Thread),
			strconv.Itoa(d.Word),
			fmt.Sprintf("%#08x", d.Golden),
			fmt.Sprintf("%#08x", d.Faulty),
			strconv.Itoa(d.BitsWrong),
			strconv.Itoa(d.Threads),
			strconv.FormatFloat(d.RelErr, 'g', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FieldBreakdown aggregates SDCs by the flip-flop group that caused them
// — the analysis behind the paper's findings that ~16% of pipeline
// registers (the control ones) cause the multi-thread SDCs and most DUEs.
func (r *Result) FieldBreakdown() map[string]int {
	out := make(map[string]int)
	for _, d := range r.Details {
		out[d.FieldName]++
	}
	return out
}
