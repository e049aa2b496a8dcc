// Package faults defines the shared fault-effect taxonomy of the two-level
// framework: outcome classes (Masked / SDC / DUE, after Avizienis et al.),
// the GPU modules characterised at RTL level (Table I of the paper), and
// the report records produced by injection campaigns.
package faults

import "fmt"

// Outcome classifies the effect of one injected fault (§II-A).
type Outcome uint8

// Fault outcomes.
const (
	Masked Outcome = iota // no effect on the program output
	SDC                   // silent data corruption: wrong output
	DUE                   // detected unrecoverable error: crash or hang
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Masked:
		return "Masked"
	case SDC:
		return "SDC"
	case DUE:
		return "DUE"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Module identifies an RTL injection site (Table I).
type Module uint8

// Characterised GPU modules.
const (
	ModFP32   Module = iota // FP32 functional units (8 lanes)
	ModINT                  // integer functional units (8 lanes)
	ModSFU                  // special function units (2, shared)
	ModSFUCtl               // SFU controller (arbitration)
	ModSched                // warp scheduler controller
	ModPipe                 // pipeline registers
	NumModules
)

// String implements fmt.Stringer.
func (m Module) String() string {
	switch m {
	case ModFP32:
		return "FP32"
	case ModINT:
		return "INT"
	case ModSFU:
		return "SFU"
	case ModSFUCtl:
		return "SFUctl"
	case ModSched:
		return "Scheduler"
	case ModPipe:
		return "Pipeline"
	default:
		return fmt.Sprintf("Module(%d)", uint8(m))
	}
}

// AllModules lists the characterised modules in Table I order.
func AllModules() []Module {
	return []Module{ModFP32, ModINT, ModSFU, ModSFUCtl, ModSched, ModPipe}
}

// ParseModule returns the module spelled s (its String form).
func ParseModule(s string) (Module, bool) { return parseString(AllModules(), s) }

// parseString returns the value of all whose String form is s.
func parseString[E fmt.Stringer](all []E, s string) (E, bool) {
	for _, v := range all {
		if v.String() == s {
			return v, true
		}
	}
	var zero E
	return zero, false
}

// InputRange buckets instruction operand magnitudes the way the paper's
// RTL campaigns do (§V-A).
type InputRange uint8

// Operand ranges: Small (~7e-6), Medium (1.8..59.4), Large (3.8e9..12.5e9).
const (
	RangeSmall InputRange = iota
	RangeMedium
	RangeLarge
	NumRanges
)

// String implements fmt.Stringer.
func (r InputRange) String() string {
	switch r {
	case RangeSmall:
		return "S"
	case RangeMedium:
		return "M"
	case RangeLarge:
		return "L"
	default:
		return fmt.Sprintf("Range(%d)", uint8(r))
	}
}

// AllRanges lists the three operand ranges.
func AllRanges() []InputRange { return []InputRange{RangeSmall, RangeMedium, RangeLarge} }

// ParseRange returns the input range spelled s: S, M or L.
func ParseRange(s string) (InputRange, bool) { return parseString(AllRanges(), s) }

// RangeBounds returns the float bounds [lo, hi) of an input range as used
// for micro-benchmark input generation and for classifying observed
// operands during software injection: values below Small's hi bound get
// the S syndrome, above Large's lo bound the L syndrome, M otherwise.
func RangeBounds(r InputRange) (lo, hi float64) {
	switch r {
	case RangeSmall:
		return 6.8e-6, 7.3e-6
	case RangeMedium:
		return 1.8, 59.4
	default:
		return 3.8e9, 12.5e9
	}
}

// ClassifyMagnitude maps an operand magnitude to the syndrome range per the
// paper's rule: "any instruction with an input smaller than S (bigger than
// L) receives the S (L) syndrome, values in between receive the M
// syndrome" (§V-A).
func ClassifyMagnitude(mag float64) InputRange {
	_, sHi := RangeBounds(RangeSmall)
	lLo, _ := RangeBounds(RangeLarge)
	switch {
	case mag < sHi:
		return RangeSmall
	case mag > lLo:
		return RangeLarge
	default:
		return RangeMedium
	}
}

// Tally accumulates campaign outcomes, distinguishing single- and
// multi-thread SDCs as the paper's general report does (§IV-A).
type Tally struct {
	Injections int `json:"injections"`
	Maskeds    int `json:"masked"`
	SDCSingle  int `json:"sdc_single"`
	SDCMulti   int `json:"sdc_multi"`
	DUEs       int `json:"dues"`

	// CorruptedThreads accumulates the number of corrupted threads over
	// all SDCs, for the paper's average-threads-per-warp analysis (§V-B).
	CorruptedThreads int `json:"corrupted_threads"`
}

// Add records one injection outcome. threads is the number of corrupted
// threads (SDC outcomes only).
func (t *Tally) Add(o Outcome, threads int) {
	t.Injections++
	switch o {
	case Masked:
		t.Maskeds++
	case DUE:
		t.DUEs++
	case SDC:
		if threads > 1 {
			t.SDCMulti++
		} else {
			t.SDCSingle++
		}
		t.CorruptedThreads += threads
	}
}

// Merge adds another tally into t.
func (t *Tally) Merge(o Tally) {
	t.Injections += o.Injections
	t.Maskeds += o.Maskeds
	t.SDCSingle += o.SDCSingle
	t.SDCMulti += o.SDCMulti
	t.DUEs += o.DUEs
	t.CorruptedThreads += o.CorruptedThreads
}

// SDCs returns the total silent data corruptions.
func (t Tally) SDCs() int { return t.SDCSingle + t.SDCMulti }

// AVFSDC is the SDC architectural vulnerability factor: observed SDCs over
// injected faults (§IV-A).
func (t Tally) AVFSDC() float64 {
	if t.Injections == 0 {
		return 0
	}
	return float64(t.SDCs()) / float64(t.Injections)
}

// AVFDUE is the DUE architectural vulnerability factor.
func (t Tally) AVFDUE() float64 {
	if t.Injections == 0 {
		return 0
	}
	return float64(t.DUEs) / float64(t.Injections)
}

// MultiShare is the fraction of SDCs that corrupt more than one thread.
func (t Tally) MultiShare() float64 {
	if t.SDCs() == 0 {
		return 0
	}
	return float64(t.SDCMulti) / float64(t.SDCs())
}

// AvgThreads is the mean number of corrupted threads per SDC.
func (t Tally) AvgThreads() float64 {
	if t.SDCs() == 0 {
		return 0
	}
	return float64(t.CorruptedThreads) / float64(t.SDCs())
}

// Pattern classifies the spatial distribution of corrupted elements in a
// tiled-MxM output (Fig. 8 / Table II).
type Pattern uint8

// Spatial corruption patterns.
const (
	PatSingle Pattern = iota // one corrupted element (not listed in Table II)
	PatRow                   // corrupted elements confined to one row
	PatCol                   // confined to one column
	PatRowCol                // one row plus one column
	PatBlock                 // a rectangular sub-block
	PatRandom                // scattered with no structure
	PatAll                   // all (or almost all) elements corrupted
	NumPatterns
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case PatSingle:
		return "single"
	case PatRow:
		return "row"
	case PatCol:
		return "col"
	case PatRowCol:
		return "row+col"
	case PatBlock:
		return "block"
	case PatRandom:
		return "random"
	case PatAll:
		return "all"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}
