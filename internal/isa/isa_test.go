package isa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpcodeMetadataComplete(t *testing.T) {
	for _, op := range AllOpcodes() {
		if op.String() == "" || strings.HasPrefix(op.String(), "Opcode(") {
			t.Errorf("opcode %d has no name", uint8(op))
		}
		if op.Unit() == UnitNone {
			t.Errorf("%s has no functional unit", op)
		}
	}
}

func TestCharacterizedOpcodes(t *testing.T) {
	ops := CharacterizedOpcodes()
	if len(ops) != 12 {
		t.Fatalf("paper characterises 12 instructions, got %d", len(ops))
	}
	for _, op := range ops {
		if !op.Characterized() {
			t.Errorf("%s in CharacterizedOpcodes but Characterized()==false", op)
		}
	}
	n := 0
	for _, op := range AllOpcodes() {
		if op.Characterized() {
			n++
		}
	}
	if n != 12 {
		t.Errorf("Characterized() true for %d opcodes, want 12", n)
	}
}

// TestParseCharacterized: the characterised opcodes parse from their
// String form; every other opcode and spelling is refused.
func TestParseCharacterized(t *testing.T) {
	for _, op := range AllOpcodes() {
		got, ok := ParseCharacterized(op.String())
		if ok != op.Characterized() || ok && got != op {
			t.Errorf("ParseCharacterized(%q) = %v, %v", op, got, ok)
		}
	}
	if _, ok := ParseCharacterized("fadd"); ok {
		t.Error("ParseCharacterized accepted a lower-case spelling")
	}
}

func TestCategoryAssignment(t *testing.T) {
	tests := []struct {
		op   Opcode
		want Category
	}{
		{OpFADD, CatFP32},
		{OpFMUL, CatFP32},
		{OpFFMA, CatFP32},
		{OpIADD, CatINT32},
		{OpIMUL, CatINT32},
		{OpIMAD, CatINT32},
		{OpFSIN, CatSFU},
		{OpFEXP, CatSFU},
		{OpGLD, CatControl},
		{OpGST, CatControl},
		{OpBRA, CatControl},
		{OpISET, CatControl},
		{OpMOV, CatOther},
		{OpBAR, CatOther},
	}
	for _, tt := range tests {
		if got := tt.op.Category(); got != tt.want {
			t.Errorf("%s category = %s, want %s", tt.op, got, tt.want)
		}
	}
}

func TestUnitRouting(t *testing.T) {
	tests := []struct {
		op   Opcode
		want Unit
	}{
		{OpFADD, UnitFP32},
		{OpFFMA, UnitFP32},
		{OpIADD, UnitINT},
		{OpIMAD, UnitINT},
		{OpFSIN, UnitSFU},
		{OpFEXP, UnitSFU},
		{OpFRCP, UnitSFU},
		{OpGLD, UnitLSU},
		{OpGST, UnitLSU},
		{OpBRA, UnitCTRL},
		{OpISET, UnitINT},
		{OpBAR, UnitCTRL},
	}
	for _, tt := range tests {
		if got := tt.op.Unit(); got != tt.want {
			t.Errorf("%s unit = %s, want %s", tt.op, got, tt.want)
		}
	}
}

func TestPredEncoding(t *testing.T) {
	if PredTrue.Index() != PT || PredTrue.Neg() {
		t.Errorf("PredTrue = %v, want @PT", PredTrue)
	}
	p := NotP(3)
	if p.Index() != 3 || !p.Neg() {
		t.Errorf("NotP(3) = index %d neg %v", p.Index(), p.Neg())
	}
	if got := P(5).String(); got != "P5" {
		t.Errorf("P5 string = %q", got)
	}
	if got := NotP(5).String(); got != "!P5" {
		t.Errorf("!P5 string = %q", got)
	}
}

func TestCmpEvalI(t *testing.T) {
	tests := []struct {
		c    Cmp
		a, b int32
		want bool
	}{
		{CmpEQ, 3, 3, true},
		{CmpEQ, 3, 4, false},
		{CmpNE, 3, 4, true},
		{CmpLT, -1, 0, true},
		{CmpLT, 0, -1, false},
		{CmpLE, 2, 2, true},
		{CmpGT, 5, 4, true},
		{CmpGE, 4, 5, false},
	}
	for _, tt := range tests {
		if got := tt.c.EvalI(tt.a, tt.b); got != tt.want {
			t.Errorf("%s(%d,%d) = %v, want %v", tt.c, tt.a, tt.b, got, tt.want)
		}
	}
}

func TestCmpEvalFNaN(t *testing.T) {
	nan := float32(math.NaN())
	for c := CmpEQ; c < numCmps; c++ {
		want := c == CmpNE
		if got := c.EvalF(nan, 1); got != want {
			t.Errorf("%s(NaN,1) = %v, want %v", c, got, want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ins := []Instr{
		{Op: OpFADD, Guard: PredTrue, Dst: 3, SrcA: 1, SrcB: 2},
		{Op: OpFFMA, Guard: P(2), Dst: 4, SrcA: 1, SrcB: 2, SrcC: 3},
		{Op: OpMOV32I, Guard: PredTrue, Dst: 5, Imm: -123456789},
		{Op: OpGLD, Guard: PredTrue, Dst: 6, SrcA: 7, Imm: 16},
		{Op: OpGST, Guard: NotP(1), SrcA: 7, SrcC: 8, Imm: -4},
		{Op: OpBRA, Guard: P(0), Target: 42, Reconv: 50},
		{Op: OpISETP, Guard: PredTrue, PDst: P(1), SrcA: 1, SrcB: 2, Cmp: CmpGE},
		{Op: OpISET, Guard: PredTrue, Dst: 9, SrcA: 1, SrcB: RZ, Cmp: CmpLT, UseImmB: true, Imm: 77},
		{Op: OpEXIT, Guard: PredTrue},
	}
	for _, in := range ins {
		got, err := Decode(Encode(in))
		if err != nil {
			t.Fatalf("decode(%v): %v", in, err)
		}
		if got != in {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, in)
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(opRaw, guard, dst, a, b, c, pdst, cmp uint8, imm int32, target, reconv uint16, useImm bool) bool {
		ops := AllOpcodes()
		in := Instr{
			Op:      ops[int(opRaw)%len(ops)],
			Guard:   Pred(guard & 0xF),
			Dst:     Reg(dst % NumRegs),
			SrcA:    Reg(a % NumRegs),
			SrcB:    Reg(b % NumRegs),
			SrcC:    Reg(c % NumRegs),
			PDst:    Pred(pdst & 0xF),
			Cmp:     Cmp(cmp % uint8(numCmps)),
			Imm:     imm,
			Target:  target,
			Reconv:  reconv,
			UseImmB: useImm,
		}
		got, err := Decode(Encode(in))
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeIllegalOpcode(t *testing.T) {
	if _, err := Decode(Word{0, 0}); err == nil {
		t.Error("decoding all-zero word should fail (illegal opcode)")
	}
	w := Encode(Instr{Op: OpNOP})
	w[0] |= 0xFF // corrupt opcode field beyond range
	if _, err := Decode(w); err == nil {
		t.Error("decoding corrupted opcode should fail")
	}
}

func TestDecodeProgramErrorPosition(t *testing.T) {
	words := EncodeProgram([]Instr{{Op: OpNOP}, {Op: OpNOP}})
	words[1][0] &^= 0xFF // zero the opcode of instruction 1
	_, err := DecodeProgram(words)
	if err == nil || !strings.Contains(err.Error(), "at 1") {
		t.Errorf("want position-annotated error, got %v", err)
	}
}

func TestFImmRoundTrip(t *testing.T) {
	in := Instr{Op: OpMOV32I}.WithFImm(3.25)
	if in.FImm() != 3.25 {
		t.Errorf("FImm round trip = %v", in.FImm())
	}
}

func TestDisassembly(t *testing.T) {
	tests := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpFADD, Guard: PredTrue, Dst: 3, SrcA: 1, SrcB: 2}, "FADD R3, R1, R2"},
		{Instr{Op: OpFFMA, Guard: P(1), Dst: 4, SrcA: 1, SrcB: 2, SrcC: 3}, "@P1 FFMA R4, R1, R2, R3"},
		{Instr{Op: OpGLD, Guard: PredTrue, Dst: 6, SrcA: 7, Imm: 2}, "GLD R6, [R7+2]"},
		{Instr{Op: OpGST, Guard: PredTrue, SrcA: 7, SrcC: 8}, "GST [R7+0], R8"},
		{Instr{Op: OpBRA, Guard: NotP(0), Target: 9}, "@!P0 BRA L9"},
		{Instr{Op: OpISETP, Guard: PredTrue, PDst: P(2), SrcA: 5, SrcB: 6, Cmp: CmpLT}, "ISETP.LT P2, R5, R6"},
		{Instr{Op: OpEXIT, Guard: PredTrue}, "EXIT"},
		{Instr{Op: OpMOV, Guard: PredTrue, Dst: 1, SrcA: RZ}, "MOV R1, RZ"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("disasm = %q, want %q", got, tt.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := Instr{Op: OpFADD, Guard: PredTrue, Dst: 1, SrcA: 2, SrcB: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid instruction rejected: %v", err)
	}
	bad := []Instr{
		{Op: OpInvalid},
		{Op: OpS2R, Imm: 99},
		{Op: OpBRA, Guard: NotP(PT)},
	}
	for _, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("invalid instruction accepted: %+v", in)
		}
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	in := Instr{Op: OpFFMA, Guard: PredTrue, Dst: 4, SrcA: 1, SrcB: 2, SrcC: 3}
	for i := 0; i < b.N; i++ {
		w := Encode(in)
		if _, err := Decode(w); err != nil {
			b.Fatal(err)
		}
	}
}

// FImm returns the immediate interpreted as a float32 payload.
func (in Instr) FImm() float32 { return math.Float32frombits(uint32(in.Imm)) }
