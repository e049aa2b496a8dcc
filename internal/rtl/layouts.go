package rtl

import "fmt"

// Table I flip-flop budgets. Layout declarations below are unit-tested to
// sum exactly to these values.
const (
	FFCountFP32   = 4451
	FFCountINT    = 1542
	FFCountSFU    = 3231
	FFCountSFUCtl = 190
	FFCountSched  = 3358
	FFCountPipe   = 10949
)

// Geometry of the modelled SM (G80 / FlexGripPlus organisation).
const (
	NumLanes   = 8  // scalar cores per SM: a warp issues as 4 groups of 8
	NumSFUs    = 2  // special function units shared by the lanes
	MaxWarps   = 24 // warp-scheduler table entries
	WarpSize   = 32
	NumGroups  = WarpSize / NumLanes
	schedEntry = 137 // bits per scheduler warp entry
)

// Warp scheduler states (3-bit field; encodings above stDone are invalid
// and trap as DUE when scheduled, modelling corrupted state registers).
const (
	stEmpty uint64 = iota
	stReady
	stAtBar
	stDone
)

// Pipeline control phases (sched "phase" field).
const (
	phSched uint64 = iota
	phFetch
	phDecode
	phCollect
	phIssue
	phExec
	phGroupWB
	phMemAddr
	phMemAccess
	phWriteback
	phCommit
)

// newSchedLayout is the warp-scheduler controller: a 24-entry warp table
// (PC, active mask, cached reconvergence point, state, SIMT stack depth,
// and the per-warp instruction buffer that feeds decode) plus the global
// dispatch state machine. Corrupting warp-wide structures here — the
// instruction buffer, the current-warp pointer, the PC — derails entire
// warps, the mechanism behind the paper's multi-thread scheduler SDCs
// (avg. 28 corrupted threads, §V-B). 24*129 + 262 = 3358 FFs.
func newSchedLayout() *Layout {
	// Per-thread active masks live in the divergence-stack block RAM (a
	// memory, excluded from injection like the register file), matching
	// FlexGripPlus's SRS organisation; the controller flip-flops hold
	// warp-granular state only, plus a short-lived mask cache between
	// scheduling and decode.
	var fields []Field
	for i := 0; i < MaxWarps; i++ {
		p := func(n string) string { return fmt.Sprintf("w%d_%s", i, n) }
		fields = append(fields,
			Field{Name: p("pc"), Width: 16},
			Field{Name: p("state"), Width: 3},
			Field{Name: p("depth"), Width: 5},   // SIMT stack depth
			Field{Name: p("slot"), Width: 5},    // warp id within the block
			Field{Name: p("reconv"), Width: 16}, // top-of-stack reconvergence PC
			Field{Name: p("ibuf"), Width: 52},   // fetched instruction buffer (control word)
			Field{Name: p("groupen"), Width: 8}, // thread-enable clusters (4 lanes per bit)
			Field{Name: p("wctl"), Width: 16},   // barrier id / replay bookkeeping
		)
	}
	fields = append(fields,
		Field{Name: "rrptr", Width: 5},   // round-robin scan pointer
		Field{Name: "phase", Width: 4},   // dispatch state machine
		Field{Name: "curwarp", Width: 5}, // warp being executed (used at commit)
		Field{Name: "group", Width: 2},   // 8-lane group being issued
		Field{Name: "livewarps", Width: 6},
		Field{Name: "barwait", Width: 6}, // warps waiting at the barrier
		Field{Name: "cyclectr", Width: 32},
		Field{Name: "fpc", Width: 16},  // fetch-stage PC copy
		Field{Name: "fwarp", Width: 5}, // fetch-stage warp tag
		Field{Name: "barmask", Width: 24},
		Field{Name: "memhold", Width: 32},
		Field{Name: "issuehold", Width: 32},
		Field{Name: "stackbase", Width: 16},
		Field{Name: "sstatus", Width: 35},
		Field{Name: "fparity", Width: 52},
		Field{Name: "maskcache", Width: 32}, // SRS mask read port latch
		Field{Name: "ibuf2", Width: 52},     // fetch double buffer
		Field{Name: "excflags", Width: 32},
		Field{Name: "perfctr", Width: 32},
		Field{Name: "retpc", Width: 16},
		Field{Name: "grpstat", Width: 8},
		Field{Name: "divctr", Width: 10},
	)
	return NewLayout("Scheduler", fields)
}

// newPipeLayout is the pipeline-register file: fetch/decode latches, the
// full-warp operand collector (double buffered), per-group execute
// latches, the result and LSU buffers, and the associated control
// registers. Datapath fields total 9216 (84.2%), control 1733 (15.8%),
// matching the paper's "≈84% store operands ... ≈16% devoted to control
// signals" (§V-B). Total 10949 FFs.
func newPipeLayout() *Layout {
	fields := cat(
		// --- Fetch/decode control (IF, ID latches). The control half of
		// the instruction word is buffered in the scheduler's per-warp
		// instruction buffer; the pipeline latches the immediate half and
		// an ECC/parity staging copy. ---
		[]Field{
			{Name: "if_ecc", Width: 64},
			{Name: "if_instr_hi", Width: 64},
			{Name: "if_pc", Width: 32},
			{Name: "if_warp", Width: 5},
			{Name: "if_valid", Width: 1},
			{Name: "if_block", Width: 8},

			{Name: "id_op", Width: 8},
			{Name: "id_dst", Width: 8},
			{Name: "id_srca", Width: 8},
			{Name: "id_srcb", Width: 8},
			{Name: "id_srcc", Width: 8},
			{Name: "id_guard", Width: 4},
			{Name: "id_pdst", Width: 4},
			{Name: "id_cmp", Width: 3},
			{Name: "id_useimm", Width: 1},
			{Name: "id_imm", Width: 32},
			{Name: "id_target", Width: 16},
			{Name: "id_reconv", Width: 16},
			{Name: "id_pc", Width: 32},
			{Name: "id_warp", Width: 5},
			{Name: "id_valid", Width: 1},
			{Name: "id_mask", Width: 32},
		},
		// --- Operand collector A: full-warp operands (datapath) ---
		lanes("cola_a", WarpSize, 32),
		lanes("cola_b", WarpSize, 32),
		lanes("cola_c", WarpSize, 32),
		// Collector A control.
		[]Field{
			{Name: "cola_valid", Width: 32}, // guard mask of collected lanes
			{Name: "cola_op", Width: 8},
			{Name: "cola_dst", Width: 8},
			{Name: "cola_warp", Width: 5},
			{Name: "cola_pdst", Width: 4},
			{Name: "cola_guard", Width: 4},
			{Name: "cola_imm", Width: 32},
			{Name: "cola_mask", Width: 32},
		},
		// --- Operand collector B (double buffer, datapath) ---
		lanes("colb_a", WarpSize, 32),
		lanes("colb_b", WarpSize, 32),
		lanes("colb_c", WarpSize, 32),
		[]Field{
			{Name: "colb_valid", Width: 32},
			{Name: "colb_op", Width: 8},
			{Name: "colb_dst", Width: 8},
			{Name: "colb_warp", Width: 5},
			{Name: "colb_pdst", Width: 4},
			{Name: "colb_guard", Width: 4},
			{Name: "colb_imm", Width: 32},
			{Name: "colb_mask", Width: 32},
		},
		// --- Predicate staging: snapshot of the 8 predicate registers for
		// all 32 lanes, double buffered (control) ---
		lanes("preda", 8, 32),
		lanes("predb", 8, 32),
		// --- Per-group execute input latches (datapath) ---
		lanes("exin_a", NumLanes, 32),
		lanes("exin_b", NumLanes, 32),
		lanes("exin_c", NumLanes, 32),
		// --- Execute output latch (datapath) ---
		lanes("exout", NumLanes, 32),
		// --- Issue control ---
		[]Field{
			{Name: "iss_group", Width: 2},
			{Name: "iss_submask", Width: 8},
			{Name: "iss_op", Width: 8},
			{Name: "iss_dst", Width: 8},
			{Name: "iss_warp", Width: 5},
			{Name: "iss_valid", Width: 1},
			{Name: "iss_pdst", Width: 4},
			{Name: "iss_cmp", Width: 3},
			{Name: "iss_imm", Width: 32},
		},
		// --- Writeback buffer: full-warp results (datapath) ---
		lanes("wb_res", WarpSize, 32),
		// Writeback control.
		[]Field{
			{Name: "wb_warp", Width: 5},
			{Name: "wb_dst", Width: 8},
			{Name: "wb_mask", Width: 32},
			{Name: "wb_valid", Width: 1},
			{Name: "wb_ispred", Width: 1},
			{Name: "wb_pdst", Width: 4},
			{Name: "wb_pc", Width: 32},
		},
		// --- LSU address buffer (datapath) ---
		lanes("lsu_addr", WarpSize, 32),
		// LSU control.
		[]Field{
			{Name: "lsu_valid", Width: 32},
			{Name: "lsu_op", Width: 2},
			{Name: "lsu_warp", Width: 5},
			{Name: "lsu_imm", Width: 32},
			{Name: "lsu_avalid", Width: 32}, // address-generated mask
			{Name: "lsu_tag", Width: 16},
		},
		// --- Branch unit ---
		[]Field{
			{Name: "br_taken", Width: 32},
			{Name: "br_ntaken", Width: 32},
			{Name: "br_target", Width: 16},
			{Name: "br_reconv", Width: 16},
			{Name: "br_valid", Width: 1},
		},
		// --- Miscellaneous control ---
		[]Field{
			{Name: "bar_count", Width: 6},
			{Name: "bar_release", Width: 1},
			{Name: "ex_pc", Width: 32},
			{Name: "grp_hist", Width: 32}, // issued-submask history (4x8)
			{Name: "scoreboard", Width: 48},
			{Name: "exc_status", Width: 32},
			{Name: "replay", Width: 16},
			{Name: "dbg_status_lo", Width: 64},
			{Name: "dbg_status_hi", Width: 10},
		},
	)
	return NewLayout("Pipeline", fields)
}

// newFP32Layout is the 8-lane single-precision unit. Each lane is the
// staged datapath of internal/fp32: unpack, exact multiply, align (order
// and shift-count, then shift and add), round — with every intermediate
// held in stage registers. 8*554 + 19 = 4451 FFs.
func newFP32Layout() *Layout {
	var fields []Field
	for l := 0; l < NumLanes; l++ {
		p := func(n string) string { return fmt.Sprintf("l%d_%s", l, n) }
		fields = append(fields,
			// Stage 1: operand latch.
			Field{Name: p("s1_a"), Width: 32},
			Field{Name: p("s1_b"), Width: 32},
			Field{Name: p("s1_c"), Width: 32},
			Field{Name: p("s1_op"), Width: 3},
			Field{Name: p("s1_valid"), Width: 1},
			// Stage 2: unpack a, b; special-case resolution.
			Field{Name: p("s2_asign"), Width: 1},
			Field{Name: p("s2_aexp"), Width: 10},
			Field{Name: p("s2_aman"), Width: 24},
			Field{Name: p("s2_bsign"), Width: 1},
			Field{Name: p("s2_bexp"), Width: 10},
			Field{Name: p("s2_bman"), Width: 24},
			Field{Name: p("s2_special"), Width: 32},
			Field{Name: p("s2_specvalid"), Width: 1},
			Field{Name: p("s2_op"), Width: 3},
			Field{Name: p("s2_valid"), Width: 1},
			// Stage 3: exact product; addend unpack.
			Field{Name: p("s3_p"), Width: 48},
			Field{Name: p("s3_pexp"), Width: 10},
			Field{Name: p("s3_psign"), Width: 1},
			Field{Name: p("s3_csign"), Width: 1},
			Field{Name: p("s3_cexp"), Width: 10},
			Field{Name: p("s3_cman"), Width: 24},
			Field{Name: p("s3_op"), Width: 3},
			Field{Name: p("s3_valid"), Width: 1},
			// Stage 4: operand ordering and alignment shift count. The
			// shift register is an avalanche fault site: one flipped bit
			// rescales the addend by a power of two (§V-C's many-bit
			// output corruptions).
			Field{Name: p("s4_fracb"), Width: 64},
			Field{Name: p("s4_fracs"), Width: 57}, // unshifted smaller fraction
			Field{Name: p("s4_expb"), Width: 10},
			Field{Name: p("s4_signb"), Width: 1},
			Field{Name: p("s4_signs"), Width: 1},
			Field{Name: p("s4_shift"), Width: 6},
			Field{Name: p("s4_valid"), Width: 1},
			// Stage 5: add / normalise.
			Field{Name: p("s5_frac"), Width: 64},
			Field{Name: p("s5_exp"), Width: 10},
			Field{Name: p("s5_sign"), Width: 1},
			Field{Name: p("s5_valid"), Width: 1},
			// Stage 6: rounded result.
			Field{Name: p("s6_res"), Width: 32},
			Field{Name: p("s6_valid"), Width: 1},
		)
	}
	fields = append(fields,
		Field{Name: "fu_stage", Width: 4},
		Field{Name: "fu_valid", Width: 1},
		Field{Name: "fu_cycles", Width: 6},
		Field{Name: "fu_lanemask", Width: 8},
	)
	return NewLayout("FP32", fields)
}

// newINTLayout is the 8-lane integer unit: operand latch, product/addend
// stage, with result delivered to the pipeline's exout latch. 8*187 + 46 =
// 1542 FFs.
func newINTLayout() *Layout {
	var fields []Field
	for l := 0; l < NumLanes; l++ {
		p := func(n string) string { return fmt.Sprintf("l%d_%s", l, n) }
		fields = append(fields,
			Field{Name: p("s1_a"), Width: 32},
			Field{Name: p("s1_b"), Width: 32},
			Field{Name: p("s1_c"), Width: 32},
			Field{Name: p("s1_op"), Width: 6},
			Field{Name: p("s1_cmp"), Width: 3},
			Field{Name: p("s1_valid"), Width: 1},
			Field{Name: p("s2_prod"), Width: 48},
			Field{Name: p("s2_addend"), Width: 32},
			Field{Name: p("s2_valid"), Width: 1},
		)
	}
	fields = append(fields,
		Field{Name: "iu_stage", Width: 2},
		Field{Name: "iu_submask", Width: 8},
		Field{Name: "iu_op", Width: 6},
		Field{Name: "iu_valid", Width: 1},
		Field{Name: "iu_dst", Width: 8},
		Field{Name: "iu_cmp", Width: 3},
		Field{Name: "iu_pdst", Width: 4},
		Field{Name: "iu_spare", Width: 14},
	)
	return NewLayout("INT", fields)
}

// sfuPipeDepth is the length of each SFU's working-register chain; the
// transcendental micro-sequences write one intermediate per cycle.
const sfuPipeDepth = 16

// newSFULayout is the pair of shared special-function units. Each unit
// holds its input latch, argument-reduction registers, the coefficient
// staging latches, a 16-deep intermediate-value pipe and the output
// latch. 2*1600 + 31 = 3231 FFs.
func newSFULayout() *Layout {
	var fields []Field
	for u := 0; u < NumSFUs; u++ {
		p := func(n string) string { return fmt.Sprintf("u%d_%s", u, n) }
		fields = append(fields,
			Field{Name: p("x"), Width: 32},
			Field{Name: p("op"), Width: 2},
			Field{Name: p("lane"), Width: 3},
			Field{Name: p("valid"), Width: 1},
			Field{Name: p("x2"), Width: 32}, // x*x or reduced argument
			Field{Name: p("f"), Width: 32},  // reduced fraction (exp)
			Field{Name: p("n"), Width: 9},   // scale integer (exp)
			Field{Name: p("res"), Width: 32},
			Field{Name: p("seed"), Width: 32}, // bit-trick Newton seed
			Field{Name: p("halfa"), Width: 32},
			Field{Name: p("iter"), Width: 5},
			Field{Name: p("spare"), Width: 44},
		)
		for c := 0; c < 8; c++ {
			fields = append(fields, Field{Name: fmt.Sprintf("u%d_coef%d", u, c), Width: 32})
		}
		for s := 0; s < sfuPipeDepth; s++ {
			fields = append(fields,
				Field{Name: fmt.Sprintf("u%d_pv%d", u, s), Width: 32}, // value
				Field{Name: fmt.Sprintf("u%d_pa%d", u, s), Width: 32}, // aux
				Field{Name: fmt.Sprintf("u%d_pt%d", u, s), Width: 4},  // tag
			)
		}
	}
	fields = append(fields,
		Field{Name: "su_select", Width: 1},
		Field{Name: "su_busy", Width: 2},
		Field{Name: "su_cycle", Width: 6},
		Field{Name: "su_status", Width: 22},
	)
	return NewLayout("SFU", fields)
}

// newSFUCtlLayout is the SFU arbitration controller: the request queue
// that time-multiplexes 8 lanes onto 2 units. Faults here mis-route
// results across lanes — the mechanism behind the paper's multi-thread
// SDCs on FSIN/FEXP (§V-B). 190 FFs.
func newSFUCtlLayout() *Layout {
	fields := []Field{
		{Name: "req_mask", Width: 8},
		{Name: "grant0", Width: 3},
		{Name: "grant1", Width: 3},
		{Name: "busy0", Width: 1},
		{Name: "busy1", Width: 1},
		{Name: "cnt0", Width: 6},
		{Name: "cnt1", Width: 6},
		{Name: "dst0", Width: 3},
		{Name: "dst1", Width: 3},
		{Name: "phase", Width: 2},
	}
	for q := 0; q < 8; q++ {
		p := fmt.Sprintf("q%d_", q)
		fields = append(fields,
			Field{Name: p + "lane", Width: 3},
			Field{Name: p + "op", Width: 2},
			Field{Name: p + "warp", Width: 5},
			Field{Name: p + "valid", Width: 1},
			Field{Name: p + "group", Width: 2},
			Field{Name: p + "spare", Width: 3},
		)
	}
	fields = append(fields, Field{Name: "cstatus", Width: 26})
	return NewLayout("SFUctl", fields)
}
