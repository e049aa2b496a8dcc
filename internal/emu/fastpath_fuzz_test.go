package emu

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"gpufi/internal/isa"
	"gpufi/internal/kasm"
)

// Differential fuzzing of the interpreter (stepFast) against the
// reference interpreter (reference_test.go): random programs and launch
// shapes, decoded straight from fuzz bytes without kasm validation (so
// illegal opcodes, wild branch targets, out-of-range addresses and
// unstructured divergence are all reachable), must produce identical
// Result counters, identical errors, identical global images and — via
// per-instruction snapshots — identical register, predicate and
// SIMT-stack state at every instruction boundary. Every payload runs
// three times on both: without hooks, and with a Post hook (see hookPlan)
// with and without an ArmAfter countdown; the hook's event logs must
// agree too.

// fuzzLaunch decodes a fuzz payload into a launch. Returns nil when the
// payload is too short to contain a single instruction.
func fuzzLaunch(data []byte) *Launch {
	if len(data) < 13 {
		return nil
	}
	grid := 1 + int(data[0])%2
	block := 1 + int(data[1])%64
	sharedWords := int(data[2]) % 16
	globalWords := 16 + int(data[3])%48
	seed := data[4]

	body := data[5:]
	n := len(body) / 8
	if n > 48 {
		n = 48
	}
	ins := make([]isa.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		c := body[i*8 : i*8+8]
		ins = append(ins, isa.Instr{
			Op:      isa.Opcode(c[0] % uint8(isa.NumOpcodes)),
			Guard:   isa.Pred(c[1] & 0x0F),
			UseImmB: c[1]&0x10 != 0,
			Dst:     isa.Reg(c[2] % isa.NumRegs),
			SrcA:    isa.Reg(c[3] % isa.NumRegs),
			SrcB:    isa.Reg(c[4] % isa.NumRegs),
			SrcC:    isa.Reg(c[5] % isa.NumRegs),
			PDst:    isa.Pred(c[6] & 0x0F),
			Cmp:     isa.Cmp(c[6] >> 4 % 8), // two values past numCmps
			Imm:     int32(int8(c[7])),
		})
	}
	// Branch targets and reconvergence points over the final program
	// length, with PC 0 standing in for "no reconvergence point" often
	// enough to exercise ErrUnstructured.
	progLen := len(ins) + 1
	for i := range ins {
		c := body[i*8 : i*8+8]
		ins[i].Target = uint16(int(c[2]) % progLen)
		ins[i].Reconv = uint16(int(c[5]) % progLen)
	}
	ins = append(ins, isa.Instr{Op: isa.OpEXIT, Guard: isa.PredTrue})

	global := make([]uint32, globalWords)
	x := uint32(seed) + 1
	for i := range global {
		x = x*1664525 + 1013904223
		global[i] = x
	}
	return &Launch{
		Prog:         &kasm.Program{Name: "fuzz", Instrs: ins},
		Grid:         grid,
		Block:        block,
		Global:       global,
		SharedWords:  sharedWords,
		MaxDynInstrs: 4096,
	}
}

// hookPlan is what the Post hook of a hooked run does, read from the
// payload's tail (the bytes after the last decoded instruction; absent
// bytes read as their defaults): on event corruptAt (counted from arming)
// it flips bit lane%32 of the output of the lane%ActiveCount-th active
// lane with CorruptDst, then calls Disarm when disarm is set. armAfter is
// the countdown of the countdown run.
type hookPlan struct {
	corruptAt int
	lane      uint8
	disarm    bool
	armAfter  uint64
}

func fuzzHookPlan(data []byte) hookPlan {
	var tail []byte
	if len(data) > 5 {
		body := data[5:]
		tail = body[min(len(body)/8, 48)*8:]
	}
	at := func(i int, def byte) byte {
		if i < len(tail) {
			return tail[i]
		}
		return def
	}
	return hookPlan{corruptAt: int(at(0, 0)), lane: at(1, 0), disarm: at(2, 0)&1 == 1, armAfter: uint64(at(3, 40))}
}

// hooks returns the plan's hooks, logging to log every event's location
// and active mask, a data instruction's per-lane operands and result, the
// corruption and the arming point.
func (p hookPlan) hooks(log *[]string, countdown bool) Hooks {
	n := 0
	h := Hooks{Post: func(ev *Event) {
		e := fmt.Sprintf("block %d warp %d pc %d active %#x", ev.Block, ev.Warp, ev.PC, ev.Active)
		switch ev.Instr.Op {
		case isa.OpBRA, isa.OpEXIT, isa.OpBAR, isa.OpNOP:
		default:
			for m := ev.Active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				d, ok := ev.DstValue(l)
				e += fmt.Sprintf(" [%d: %#x %#x -> %#x %v]", l, ev.SrcA(l), ev.SrcB(l), d, ok)
			}
		}
		if n == p.corruptAt {
			lane := ev.NthActiveLane(int(p.lane) % ev.ActiveCount())
			d, _ := ev.DstValue(lane)
			e += fmt.Sprintf(" corrupt lane %d: %v", lane, ev.CorruptDst(lane, d^1<<(p.lane%32)))
			if p.disarm {
				ev.Disarm()
			}
		}
		n++
		*log = append(*log, e)
	}}
	if countdown {
		h.ArmAfter = p.armAfter
		h.OnArm = func(r *Result) { *log = append(*log, fmt.Sprintf("armed at %d", r.DynThreadInstrs)) }
	}
	return h
}

type tierTrace struct {
	res    Result
	err    error
	global []uint32
	snaps  []*Snapshot
	images [][]uint32 // the global image at each snapshot, which it does not hold
	events []string
}

// runTier runs l on the reference interpreter or on stepFast, with the
// hooks hooks returns (none when it is nil), capturing a snapshot at every
// instruction boundary.
func runTier(l *Launch, reference bool, hooks func(log *[]string) Hooks) *tierTrace {
	t := &tierTrace{global: append([]uint32(nil), l.Global...)}
	run := *l
	run.Global = t.global
	if hooks != nil {
		run.Hooks = hooks(&t.events)
	}
	sink := func(s *Snapshot) {
		t.snaps = append(t.snaps, s)
		t.images = append(t.images, slices.Clone(t.global))
	}
	if reference {
		t.res, t.err = runReference(&run, 1, 1, sink)
	} else {
		t.res, t.err = RunCheckpointed(&run, 1, 1, sink)
	}
	return t
}

func warpDiff(a, b *warp) string {
	switch {
	case a == nil || b == nil:
		if a != b {
			return fmt.Sprintf("started %v vs %v", a != nil, b != nil)
		}
		return ""
	case a.id != b.id:
		return fmt.Sprintf("id %d vs %d", a.id, b.id)
	case a.live != b.live:
		return fmt.Sprintf("live %#x vs %#x", a.live, b.live)
	case a.atBar != b.atBar:
		return fmt.Sprintf("atBar %v vs %v", a.atBar, b.atBar)
	case a.done != b.done:
		return fmt.Sprintf("done %v vs %v", a.done, b.done)
	case a.regs != b.regs:
		return "register files differ"
	case a.preds != b.preds:
		return "predicate files differ"
	case len(a.stack) != len(b.stack):
		return fmt.Sprintf("stack depth %d vs %d", len(a.stack), len(b.stack))
	}
	for i := range a.stack {
		if a.stack[i] != b.stack[i] {
			return fmt.Sprintf("stack[%d] %+v vs %+v", i, a.stack[i], b.stack[i])
		}
	}
	return ""
}

// snapshotDiff compares two snapshots and the global images ga and gb at
// their capture.
func snapshotDiff(a, b *Snapshot, ga, gb []uint32) string {
	switch {
	case a.block != b.block || a.warp != b.warp:
		return fmt.Sprintf("block %d warp %d vs block %d warp %d", a.block, a.warp, b.block, b.warp)
	case a.words != b.words:
		return fmt.Sprintf("%d global words vs %d", a.words, b.words)
	case a.res != b.res:
		return fmt.Sprintf("res %+v vs %+v", a.res, b.res)
	case len(a.warps) != len(b.warps):
		return fmt.Sprintf("%d warps vs %d", len(a.warps), len(b.warps))
	}
	for i := range a.warps {
		if d := warpDiff(a.warps[i], b.warps[i]); d != "" {
			return fmt.Sprintf("warp %d: %s", i, d)
		}
	}
	for i := range a.shared {
		if a.shared[i] != b.shared[i] {
			return fmt.Sprintf("shared[%d] %#x vs %#x", i, a.shared[i], b.shared[i])
		}
	}
	for i := range ga {
		if ga[i] != gb[i] {
			return fmt.Sprintf("global[%d] %#x vs %#x", i, ga[i], gb[i])
		}
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// diffTiers runs the payload through both interpreters, unhooked and
// hooked, and fails on the first divergence.
func diffTiers(t *testing.T, data []byte) {
	t.Helper()
	l := fuzzLaunch(data)
	if l == nil {
		return
	}
	plan := fuzzHookPlan(data)
	for _, mode := range []struct {
		name  string
		hooks func(log *[]string) Hooks
	}{
		{"unhooked", nil},
		{"hooked", func(log *[]string) Hooks { return plan.hooks(log, false) }},
		{"countdown", func(log *[]string) Hooks { return plan.hooks(log, true) }},
	} {
		ref := runTier(l, true, mode.hooks)
		fast := runTier(l, false, mode.hooks)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s: %s\n%s", mode.name, fmt.Sprintf(format, args...), l.Prog.Disasm())
		}
		if errString(ref.err) != errString(fast.err) {
			fail("error mismatch: reference %q, stepFast %q", errString(ref.err), errString(fast.err))
		}
		if ref.res != fast.res {
			fail("Result mismatch: reference %+v, stepFast %+v", ref.res, fast.res)
		}
		for i := range ref.global {
			if ref.global[i] != fast.global[i] {
				fail("global[%d] = %#x (reference) vs %#x (stepFast)", i, ref.global[i], fast.global[i])
			}
		}
		if len(ref.events) != len(fast.events) {
			fail("%d events (reference) vs %d (stepFast)", len(ref.events), len(fast.events))
		}
		for i := range ref.events {
			if ref.events[i] != fast.events[i] {
				fail("event %d:\nreference %s\nstepFast  %s", i, ref.events[i], fast.events[i])
			}
		}
		if len(ref.snaps) != len(fast.snaps) {
			fail("%d snapshots (reference) vs %d (stepFast)", len(ref.snaps), len(fast.snaps))
		}
		for i := range ref.snaps {
			if d := snapshotDiff(ref.snaps[i], fast.snaps[i], ref.images[i], fast.images[i]); d != "" {
				fail("snapshot %d: %s", i, d)
			}
		}
	}
}

// fuzzSeedCorpus builds deterministic payloads that reach every opcode,
// guard polarity, immediate form, divergence shape and failure mode at
// least once. The same corpus seeds the fuzzer and backs the
// deterministic regression test below.
func fuzzSeedCorpus() [][]byte {
	instr := func(op isa.Opcode, guard, dst, srcA, srcB, srcC, pcmp, imm byte) []byte {
		return []byte{byte(op), guard, dst, srcA, srcB, srcC, pcmp, imm}
	}
	header := func(grid, block, shared, global, seed byte) []byte {
		return []byte{grid, block, shared, global, seed}
	}
	var corpus [][]byte

	// One payload per opcode: a small setup then the opcode itself with
	// register, immediate, guarded and negated-guard variants.
	for op := isa.Opcode(0); int(op) < isa.NumOpcodes; op++ {
		p := header(1, 33, 8, 16, byte(op)) // 33 threads: one full + one partial warp
		p = append(p, instr(isa.OpS2R, 7, 1, 0, 0, 0, 0, byte(isa.SRTid))...)
		p = append(p, instr(isa.OpISETP, 7, 0, 1, 1, 0, 0x21, 7)...)    // P1 = tid > 7
		p = append(p, instr(isa.OpMOV32I, 0x17, 2, 0, 0, 0, 0, 3)...)   // imm form
		p = append(p, instr(op, 1, 3, 1, 2, 1, 0x42, 2)...)             // @P1 op
		p = append(p, instr(op, 9, 4, 2, 1, 2, 0x11, 1)...)             // @!P1 op
		p = append(p, instr(op, 0x17, 63, 1, 2, 3, 0x32, 4)...)         // imm, RZ dst
		p = append(p, 3+byte(op)%3, byte(op), byte(op)>>1, 16+byte(op)) // hook plan: corrupt an op event
		corpus = append(corpus, p)
	}

	// Divergent branch with and without a reconvergence point, nested
	// divergence, and a branch whose target is PC 0 (backward loop until
	// the watchdog fires).
	div := header(2, 64, 4, 32, 9)
	div = append(div, instr(isa.OpS2R, 7, 1, 0, 0, 0, 0, byte(isa.SRLane))...)
	div = append(div, instr(isa.OpISETP, 7, 0, 1, 1, 0, 0x41, 15)...)
	div = append(div, instr(isa.OpBRA, 1, 5, 0, 0, 5, 0, 0)...)
	div = append(div, instr(isa.OpIADD, 7, 2, 2, 0, 0, 0x10, 1)...)
	div = append(div, instr(isa.OpGST, 7, 0, 63, 0, 2, 0, 3)...)
	corpus = append(corpus, div)

	unstructured := header(1, 64, 0, 16, 3)
	unstructured = append(unstructured, instr(isa.OpS2R, 7, 1, 0, 0, 0, 0, byte(isa.SRLane))...)
	unstructured = append(unstructured, instr(isa.OpISETP, 7, 0, 1, 1, 0, 0x21, 3)...)
	unstructured = append(unstructured, instr(isa.OpBRA, 1, 4, 0, 0, 0, 0, 0)...)
	corpus = append(corpus, unstructured)

	loop := header(1, 32, 0, 16, 5)
	loop = append(loop, instr(isa.OpIADD, 7, 1, 1, 0, 0, 0x10, 1)...)
	loop = append(loop, instr(isa.OpBRA, 7, 0, 0, 0, 0, 0, 0)...)
	corpus = append(corpus, loop)

	// Barrier: uniform (released) and diverged (fault).
	bar := header(1, 48, 4, 16, 2)
	bar = append(bar, instr(isa.OpSST, 7, 0, 63, 0, 1, 0, 1)...)
	bar = append(bar, instr(isa.OpBAR, 7, 0, 0, 0, 0, 0, 0)...)
	bar = append(bar, instr(isa.OpSLD, 7, 2, 63, 0, 0, 0, 1)...)
	corpus = append(corpus, bar)

	barDiv := header(1, 64, 0, 16, 2)
	barDiv = append(barDiv, instr(isa.OpS2R, 7, 1, 0, 0, 0, 0, byte(isa.SRLane))...)
	barDiv = append(barDiv, instr(isa.OpISETP, 7, 0, 1, 1, 0, 0x21, 9)...)
	barDiv = append(barDiv, instr(isa.OpEXIT, 1, 0, 0, 0, 0, 0, 0)...)
	barDiv = append(barDiv, instr(isa.OpBAR, 7, 0, 0, 0, 0, 0, 0)...)
	corpus = append(corpus, barDiv)

	// Out-of-range memory: a huge negative immediate offset faults
	// mid-warp after some lanes already stored.
	badAddr := header(1, 32, 0, 16, 4)
	badAddr = append(badAddr, instr(isa.OpS2R, 7, 1, 0, 0, 0, 0, byte(isa.SRLane))...)
	badAddr = append(badAddr, instr(isa.OpIMUL, 0x17, 1, 1, 0, 0, 0, 7)...)
	badAddr = append(badAddr, instr(isa.OpGST, 7, 0, 1, 0, 1, 0, 0)...)
	corpus = append(corpus, badAddr)

	// Hooked corner cases, each corrupting event 1 of warp 0 — the
	// instruction after S2R. An RZ destination: the event reports the
	// dropped result and CorruptDst changes no register.
	rz := header(1, 40, 0, 64, 6)
	rz = append(rz, instr(isa.OpS2R, 7, 1, 0, 0, 0, 0, byte(isa.SRTid))...)
	rz = append(rz, instr(isa.OpIADD, 0x17, 63, 1, 0, 0, 0, 5)...)
	rz = append(rz, instr(isa.OpGST, 7, 0, 1, 0, 63, 0, 0)...)
	rz = append(rz, 1, 3, 0)
	corpus = append(corpus, rz)

	// Dst == SrcA: the event's SrcA is the value read, not the one written.
	alias := header(1, 40, 0, 64, 7)
	alias = append(alias, instr(isa.OpS2R, 7, 1, 0, 0, 0, 0, byte(isa.SRTid))...)
	alias = append(alias, instr(isa.OpIADD, 0x17, 1, 1, 0, 0, 0, 9)...)
	alias = append(alias, instr(isa.OpGST, 7, 0, 1, 0, 1, 0, 0)...)
	alias = append(alias, 1, 5, 1)
	corpus = append(corpus, alias)

	// A GST that faults mid-warp after a corrupted address: no event for it.
	gstFault := header(1, 32, 0, 16, 8)
	gstFault = append(gstFault, instr(isa.OpS2R, 7, 1, 0, 0, 0, 0, byte(isa.SRLane))...)
	gstFault = append(gstFault, instr(isa.OpIMUL, 0x17, 1, 1, 0, 0, 0, 3)...)
	gstFault = append(gstFault, instr(isa.OpGST, 7, 0, 1, 0, 1, 0, 0)...)
	gstFault = append(gstFault, 1, 2, 0, 0)
	corpus = append(corpus, gstFault)

	// ISETP into PT: the write is dropped and there is no output to corrupt.
	isetpPT := header(1, 33, 0, 16, 9)
	isetpPT = append(isetpPT, instr(isa.OpS2R, 7, 1, 0, 0, 0, 0, byte(isa.SRTid))...)
	isetpPT = append(isetpPT, instr(isa.OpISETP, 0x17, 0, 1, 0, 0, 0x27, 4)...)
	isetpPT = append(isetpPT, instr(isa.OpSEL, 7, 2, 1, 0, 0, 0x07, 0)...)
	isetpPT = append(isetpPT, instr(isa.OpGST, 7, 0, 1, 0, 2, 0, 0)...)
	isetpPT = append(isetpPT, 1, 7, 1, 64)
	corpus = append(corpus, isetpPT)

	return corpus
}

func FuzzEmuFastPathVsReference(f *testing.F) {
	for _, seed := range fuzzSeedCorpus() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		diffTiers(t, data)
	})
}

// TestEmuFastPathCorpus pins the deterministic corpus so the agreement
// with the reference interpreter is checked on every plain `go test` run
// (including -race in CI), not only when the fuzzer runs.
func TestEmuFastPathCorpus(t *testing.T) {
	for i, seed := range fuzzSeedCorpus() {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) {
			diffTiers(t, seed)
		})
	}
}
