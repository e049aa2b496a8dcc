package rtl

import "fmt"

// Field-handle structs: pre-resolved indices into each module's layout so
// the cycle loop never does string lookups.

type schedFields struct {
	pc, state, depth, slot, reconv, ibuf, groupen, wctl [MaxWarps]int

	rrptr, phase, curwarp, group, livewarps, barwait, cyclectr           int
	fpc, fwarp, barmask, memhold, issuehold, stackbase, sstatus, fparity int
	maskcache, ibuf2, excflags, perfctr, retpc, grpstat, divctr          int
}

func (f *schedFields) init(l *Layout) {
	for w := 0; w < MaxWarps; w++ {
		p := func(n string) int { return l.MustField(fmt.Sprintf("w%d_%s", w, n)) }
		f.pc[w] = p("pc")
		f.state[w] = p("state")
		f.depth[w] = p("depth")
		f.slot[w] = p("slot")
		f.reconv[w] = p("reconv")
		f.ibuf[w] = p("ibuf")
		f.groupen[w] = p("groupen")
		f.wctl[w] = p("wctl")
	}
	f.rrptr = l.MustField("rrptr")
	f.phase = l.MustField("phase")
	f.curwarp = l.MustField("curwarp")
	f.group = l.MustField("group")
	f.livewarps = l.MustField("livewarps")
	f.barwait = l.MustField("barwait")
	f.cyclectr = l.MustField("cyclectr")
	f.fpc = l.MustField("fpc")
	f.fwarp = l.MustField("fwarp")
	f.barmask = l.MustField("barmask")
	f.memhold = l.MustField("memhold")
	f.issuehold = l.MustField("issuehold")
	f.stackbase = l.MustField("stackbase")
	f.sstatus = l.MustField("sstatus")
	f.fparity = l.MustField("fparity")
	f.maskcache = l.MustField("maskcache")
	f.ibuf2 = l.MustField("ibuf2")
	f.excflags = l.MustField("excflags")
	f.perfctr = l.MustField("perfctr")
	f.retpc = l.MustField("retpc")
	f.grpstat = l.MustField("grpstat")
	f.divctr = l.MustField("divctr")
}

type pipeFields struct {
	ifEcc, ifInstrHi, ifPC, ifWarp, ifValid, ifBlock int

	idOp, idDst, idSrcA, idSrcB, idSrcC, idGuard, idPDst, idCmp        int
	idUseImm, idImm, idTarget, idReconv, idPC, idWarp, idValid, idMask int

	colaA, colaB, colaC                                                          [WarpSize]int
	colaValid, colaOp, colaDst, colaWarp, colaPDst, colaGuard, colaImm, colaMask int

	colbA, colbB, colbC                                                          [WarpSize]int
	colbValid, colbOp, colbDst, colbWarp, colbPDst, colbGuard, colbImm, colbMask int

	predA, predB [8]int

	exinA, exinB, exinC, exout [NumLanes]int

	issGroup, issSubmask, issOp, issDst, issWarp, issValid, issPDst, issCmp, issImm int

	wbRes                                                  [WarpSize]int
	wbWarp, wbDst, wbMask, wbValid, wbIsPred, wbPDst, wbPC int

	lsuAddr                                             [WarpSize]int
	lsuValid, lsuOp, lsuWarp, lsuImm, lsuAValid, lsuTag int

	brTaken, brNtaken, brTarget, brReconv, brValid int

	barCount, barRelease, exPC, grpHist, scoreboard, excStatus, replay int
}

func (f *pipeFields) init(l *Layout) {
	g := l.MustField
	f.ifEcc, f.ifInstrHi = g("if_ecc"), g("if_instr_hi")
	f.ifPC, f.ifWarp, f.ifValid, f.ifBlock = g("if_pc"), g("if_warp"), g("if_valid"), g("if_block")

	f.idOp, f.idDst = g("id_op"), g("id_dst")
	f.idSrcA, f.idSrcB, f.idSrcC = g("id_srca"), g("id_srcb"), g("id_srcc")
	f.idGuard, f.idPDst, f.idCmp = g("id_guard"), g("id_pdst"), g("id_cmp")
	f.idUseImm, f.idImm = g("id_useimm"), g("id_imm")
	f.idTarget, f.idReconv = g("id_target"), g("id_reconv")
	f.idPC, f.idWarp, f.idValid, f.idMask = g("id_pc"), g("id_warp"), g("id_valid"), g("id_mask")

	for i := 0; i < WarpSize; i++ {
		f.colaA[i] = g(fmt.Sprintf("cola_a%d", i))
		f.colaB[i] = g(fmt.Sprintf("cola_b%d", i))
		f.colaC[i] = g(fmt.Sprintf("cola_c%d", i))
		f.colbA[i] = g(fmt.Sprintf("colb_a%d", i))
		f.colbB[i] = g(fmt.Sprintf("colb_b%d", i))
		f.colbC[i] = g(fmt.Sprintf("colb_c%d", i))
		f.wbRes[i] = g(fmt.Sprintf("wb_res%d", i))
		f.lsuAddr[i] = g(fmt.Sprintf("lsu_addr%d", i))
	}
	f.colaValid, f.colaOp, f.colaDst, f.colaWarp = g("cola_valid"), g("cola_op"), g("cola_dst"), g("cola_warp")
	f.colaPDst, f.colaGuard, f.colaImm, f.colaMask = g("cola_pdst"), g("cola_guard"), g("cola_imm"), g("cola_mask")
	f.colbValid, f.colbOp, f.colbDst, f.colbWarp = g("colb_valid"), g("colb_op"), g("colb_dst"), g("colb_warp")
	f.colbPDst, f.colbGuard, f.colbImm, f.colbMask = g("colb_pdst"), g("colb_guard"), g("colb_imm"), g("colb_mask")

	for p := 0; p < 8; p++ {
		f.predA[p] = g(fmt.Sprintf("preda%d", p))
		f.predB[p] = g(fmt.Sprintf("predb%d", p))
	}
	for i := 0; i < NumLanes; i++ {
		f.exinA[i] = g(fmt.Sprintf("exin_a%d", i))
		f.exinB[i] = g(fmt.Sprintf("exin_b%d", i))
		f.exinC[i] = g(fmt.Sprintf("exin_c%d", i))
		f.exout[i] = g(fmt.Sprintf("exout%d", i))
	}
	f.issGroup, f.issSubmask, f.issOp, f.issDst = g("iss_group"), g("iss_submask"), g("iss_op"), g("iss_dst")
	f.issWarp, f.issValid, f.issPDst, f.issCmp, f.issImm = g("iss_warp"), g("iss_valid"), g("iss_pdst"), g("iss_cmp"), g("iss_imm")

	f.wbWarp, f.wbDst, f.wbMask, f.wbValid = g("wb_warp"), g("wb_dst"), g("wb_mask"), g("wb_valid")
	f.wbIsPred, f.wbPDst, f.wbPC = g("wb_ispred"), g("wb_pdst"), g("wb_pc")

	f.lsuValid, f.lsuOp, f.lsuWarp = g("lsu_valid"), g("lsu_op"), g("lsu_warp")
	f.lsuImm, f.lsuAValid, f.lsuTag = g("lsu_imm"), g("lsu_avalid"), g("lsu_tag")

	f.brTaken, f.brNtaken, f.brTarget = g("br_taken"), g("br_ntaken"), g("br_target")
	f.brReconv, f.brValid = g("br_reconv"), g("br_valid")

	f.barCount, f.barRelease, f.exPC = g("bar_count"), g("bar_release"), g("ex_pc")
	f.grpHist, f.scoreboard, f.excStatus, f.replay = g("grp_hist"), g("scoreboard"), g("exc_status"), g("replay")
}

type fpFields struct {
	s1A, s1B, s1C, s1Op, s1Valid [NumLanes]int
	s2ASign, s2AExp, s2AMan      [NumLanes]int
	s2BSign, s2BExp, s2BMan      [NumLanes]int
	s2Special, s2SpecValid       [NumLanes]int
	s2Op, s2Valid                [NumLanes]int
	s3P, s3PExp, s3PSign         [NumLanes]int
	s3CSign, s3CExp, s3CMan      [NumLanes]int
	s3Op, s3Valid                [NumLanes]int
	s4FracB, s4FracS, s4ExpB     [NumLanes]int
	s4SignB, s4SignS, s4Valid    [NumLanes]int
	s4Shift                      [NumLanes]int
	s5Frac, s5Exp, s5Sign        [NumLanes]int
	s5Valid                      [NumLanes]int
	s6Res, s6Valid               [NumLanes]int

	fuStage, fuValid, fuCycles, fuLaneMask int
}

func (f *fpFields) init(l *Layout) {
	for i := 0; i < NumLanes; i++ {
		g := func(n string) int { return l.MustField(fmt.Sprintf("l%d_%s", i, n)) }
		f.s1A[i], f.s1B[i], f.s1C[i] = g("s1_a"), g("s1_b"), g("s1_c")
		f.s1Op[i], f.s1Valid[i] = g("s1_op"), g("s1_valid")
		f.s2ASign[i], f.s2AExp[i], f.s2AMan[i] = g("s2_asign"), g("s2_aexp"), g("s2_aman")
		f.s2BSign[i], f.s2BExp[i], f.s2BMan[i] = g("s2_bsign"), g("s2_bexp"), g("s2_bman")
		f.s2Special[i], f.s2SpecValid[i] = g("s2_special"), g("s2_specvalid")
		f.s2Op[i], f.s2Valid[i] = g("s2_op"), g("s2_valid")
		f.s3P[i], f.s3PExp[i], f.s3PSign[i] = g("s3_p"), g("s3_pexp"), g("s3_psign")
		f.s3CSign[i], f.s3CExp[i], f.s3CMan[i] = g("s3_csign"), g("s3_cexp"), g("s3_cman")
		f.s3Op[i], f.s3Valid[i] = g("s3_op"), g("s3_valid")
		f.s4FracB[i], f.s4FracS[i], f.s4ExpB[i] = g("s4_fracb"), g("s4_fracs"), g("s4_expb")
		f.s4SignB[i], f.s4SignS[i], f.s4Valid[i] = g("s4_signb"), g("s4_signs"), g("s4_valid")
		f.s4Shift[i] = g("s4_shift")
		f.s5Frac[i], f.s5Exp[i], f.s5Sign[i], f.s5Valid[i] = g("s5_frac"), g("s5_exp"), g("s5_sign"), g("s5_valid")
		f.s6Res[i], f.s6Valid[i] = g("s6_res"), g("s6_valid")
	}
	f.fuStage, f.fuValid, f.fuCycles = l.MustField("fu_stage"), l.MustField("fu_valid"), l.MustField("fu_cycles")
	f.fuLaneMask = l.MustField("fu_lanemask")
}

type intFields struct {
	s1A, s1B, s1C, s1Op, s1Cmp, s1Valid [NumLanes]int
	s2Prod, s2Addend, s2Valid           [NumLanes]int

	iuStage, iuSubmask, iuOp, iuValid, iuDst, iuCmp, iuPDst int
}

func (f *intFields) init(l *Layout) {
	for i := 0; i < NumLanes; i++ {
		g := func(n string) int { return l.MustField(fmt.Sprintf("l%d_%s", i, n)) }
		f.s1A[i], f.s1B[i], f.s1C[i] = g("s1_a"), g("s1_b"), g("s1_c")
		f.s1Op[i], f.s1Cmp[i], f.s1Valid[i] = g("s1_op"), g("s1_cmp"), g("s1_valid")
		f.s2Prod[i], f.s2Addend[i], f.s2Valid[i] = g("s2_prod"), g("s2_addend"), g("s2_valid")
	}
	f.iuStage, f.iuSubmask, f.iuOp = l.MustField("iu_stage"), l.MustField("iu_submask"), l.MustField("iu_op")
	f.iuValid, f.iuDst = l.MustField("iu_valid"), l.MustField("iu_dst")
	f.iuCmp, f.iuPDst = l.MustField("iu_cmp"), l.MustField("iu_pdst")
}

type sfuFields struct {
	x, op, lane, valid, x2, fr, n, res, seed, halfa, iter [NumSFUs]int
	coef                                                  [NumSFUs][8]int
	pv, pa, ptag                                          [NumSFUs][sfuPipeDepth]int

	suSelect, suBusy, suCycle int
}

func (f *sfuFields) init(l *Layout) {
	for u := 0; u < NumSFUs; u++ {
		g := func(n string) int { return l.MustField(fmt.Sprintf("u%d_%s", u, n)) }
		f.x[u], f.op[u], f.lane[u], f.valid[u] = g("x"), g("op"), g("lane"), g("valid")
		f.x2[u], f.fr[u], f.n[u], f.res[u] = g("x2"), g("f"), g("n"), g("res")
		f.seed[u], f.halfa[u], f.iter[u] = g("seed"), g("halfa"), g("iter")
		for c := 0; c < 8; c++ {
			f.coef[u][c] = l.MustField(fmt.Sprintf("u%d_coef%d", u, c))
		}
		for s := 0; s < sfuPipeDepth; s++ {
			f.pv[u][s] = l.MustField(fmt.Sprintf("u%d_pv%d", u, s))
			f.pa[u][s] = l.MustField(fmt.Sprintf("u%d_pa%d", u, s))
			f.ptag[u][s] = l.MustField(fmt.Sprintf("u%d_pt%d", u, s))
		}
	}
	f.suSelect, f.suBusy, f.suCycle = l.MustField("su_select"), l.MustField("su_busy"), l.MustField("su_cycle")
}

type ctlFields struct {
	reqMask, grant0, grant1, busy0, busy1, cnt0, cnt1, dst0, dst1, phase int
	qLane, qOp, qWarp, qValid, qGroup                                    [8]int
}

func (f *ctlFields) init(l *Layout) {
	g := l.MustField
	f.reqMask, f.grant0, f.grant1 = g("req_mask"), g("grant0"), g("grant1")
	f.busy0, f.busy1, f.cnt0, f.cnt1 = g("busy0"), g("busy1"), g("cnt0"), g("cnt1")
	f.dst0, f.dst1, f.phase = g("dst0"), g("dst1"), g("phase")
	for q := 0; q < 8; q++ {
		f.qLane[q] = g(fmt.Sprintf("q%d_lane", q))
		f.qOp[q] = g(fmt.Sprintf("q%d_op", q))
		f.qWarp[q] = g(fmt.Sprintf("q%d_warp", q))
		f.qValid[q] = g(fmt.Sprintf("q%d_valid", q))
		f.qGroup[q] = g(fmt.Sprintf("q%d_group", q))
	}
}

// encS encodes a signed value into a width-bit two's-complement field.
func encS(v int32, width uint) uint64 {
	return uint64(uint32(v)) & (1<<width - 1)
}

// decS decodes a width-bit two's-complement field.
func decS(u uint64, width uint) int32 {
	v := uint32(u)
	if u&(1<<(width-1)) != 0 {
		v |= ^uint32(0) << width
	}
	return int32(v)
}
