package swfi

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/campaign"
	"gpufi/internal/cnn"
	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/replay"
	"gpufi/internal/rtlfi"
	"gpufi/internal/stats"
	"gpufi/internal/syndrome"
)

// testDB builds a small but real syndrome database (shared across tests;
// building it runs actual RTL campaigns).
var testDBOnce *syndrome.DB

func testDB(t *testing.T) *syndrome.DB {
	t.Helper()
	if testDBOnce != nil {
		return testDBOnce
	}
	db := syndrome.New()
	specs := []rtlfi.Spec{
		{Op: isa.OpFADD, Range: faults.RangeMedium, Module: faults.ModFP32, NumFaults: 800, Seed: 1},
		{Op: isa.OpFFMA, Range: faults.RangeMedium, Module: faults.ModFP32, NumFaults: 800, Seed: 2},
		{Op: isa.OpFFMA, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 800, Seed: 3},
		{Op: isa.OpIADD, Range: faults.RangeMedium, Module: faults.ModINT, NumFaults: 800, Seed: 4},
		{Op: isa.OpIMAD, Range: faults.RangeMedium, Module: faults.ModINT, NumFaults: 800, Seed: 5},
		{Op: isa.OpGLD, Range: faults.RangeMedium, Module: faults.ModPipe, NumFaults: 800, Seed: 6},
	}
	for _, s := range specs {
		res, err := rtlfi.RunMicro(s)
		if err != nil {
			t.Fatal(err)
		}
		db.AddMicro(res)
	}
	tm, err := rtlfi.RunTMXM(rtlfi.TMXMSpec{
		Module: faults.ModSched, Kind: mxm.TileRandom, NumFaults: 1200, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.AddTMXM(tm)
	testDBOnce = db
	return db
}

func TestInjectableSet(t *testing.T) {
	if Injectable(isa.OpBRA) {
		t.Error("BRA has no data output")
	}
	if !Injectable(isa.OpFFMA) || !Injectable(isa.OpGST) || !Injectable(isa.OpISET) {
		t.Error("characterised data ops must be injectable")
	}
	if Injectable(isa.OpMOV) {
		t.Error("uncharacterised ops are not injected (§VI)")
	}
}

func TestProfileShapes(t *testing.T) {
	// Fig. 3 shapes: MxM is FP32-heavy; quicksort is control/INT heavy.
	m, err := Profile(apps.NewMxM(16))
	if err != nil {
		t.Fatal(err)
	}
	sm := m.CategoryShares()
	if sm[isa.CatFP32] < 0.10 {
		t.Errorf("MxM FP32 share = %.2f", sm[isa.CatFP32])
	}
	q, err := Profile(apps.NewQuicksort(128))
	if err != nil {
		t.Fatal(err)
	}
	sq := q.CategoryShares()
	if sq[isa.CatFP32] > sm[isa.CatFP32] {
		t.Errorf("quicksort FP32 share %.2f above MxM %.2f", sq[isa.CatFP32], sm[isa.CatFP32])
	}
	if sq[isa.CatControl]+sq[isa.CatINT32]+sq[isa.CatOther] < 0.8 {
		t.Errorf("quicksort not control/INT dominated: %v", sq)
	}
	if m.Total() == 0 || m.InjectableTotal() == 0 || m.InjectableTotal() > m.Total() {
		t.Error("count bookkeeping broken")
	}
}

func TestBitFlipCampaignOnMxM(t *testing.T) {
	res, err := Run(Campaign{
		Workload: apps.NewMxM(64), Model: ModelBitFlip,
		Injections: 120, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Injections != 120 {
		t.Fatalf("injections = %d", res.Tally.Injections)
	}
	// MxM PVF is ~1.0 in the paper: nearly every corrupted FFMA output
	// survives to the result (exact-compare criterion). At the suite's
	// 64x64 size a share of address-derailing flips crash instead.
	if res.PVF() < 0.7 {
		t.Errorf("MxM bit-flip PVF = %.2f, expected near 1", res.PVF())
	}
	lo, hi := res.PVFCI()
	if lo > res.PVF() || hi < res.PVF() {
		t.Error("CI does not bracket the PVF")
	}
}

func TestSyndromeRequiresDB(t *testing.T) {
	_, err := Run(Campaign{
		Workload: apps.NewMxM(16), Model: ModelSyndrome, Injections: 1,
	})
	if err != ErrNoDB {
		t.Errorf("err = %v, want ErrNoDB", err)
	}
}

func TestSyndromePVFAtLeastBitFlip(t *testing.T) {
	// The paper's headline (Fig. 10): the relative-error syndrome model
	// yields a PVF greater than or equal to the naive single bit-flip.
	db := testDB(t)
	w := apps.NewHotspot(16, 8) // the app with the strongest masking
	flip, err := Run(Campaign{Workload: w, Model: ModelBitFlip, Injections: 250, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := Run(Campaign{Workload: w, Model: ModelSyndrome, DB: db, Injections: 250, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("hotspot PVF: bitflip=%.3f syndrome=%.3f", flip.PVF(), syn.PVF())
	if syn.PVF()+0.08 < flip.PVF() {
		t.Errorf("syndrome PVF %.3f markedly below bit-flip %.3f", syn.PVF(), flip.PVF())
	}
}

func TestCampaignDeterminism(t *testing.T) {
	c := Campaign{
		Workload: apps.NewMxM(16), Model: ModelBitFlip,
		Injections: 60, Seed: 5, Workers: 3,
	}
	a, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tally != b.Tally {
		t.Errorf("tallies differ: %+v vs %+v", a.Tally, b.Tally)
	}
}

func TestDoubleBitFlipFlipsTwoBits(t *testing.T) {
	res, err := Run(Campaign{
		Workload: apps.NewMxM(16), Model: ModelDoubleBitFlip,
		Injections: 40, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.SDCs() == 0 {
		t.Error("double bit-flips on MxM produced no SDCs")
	}
}

func TestCNNBitFlipCampaign(t *testing.T) {
	net := cnn.NewLeNetLite()
	res, err := RunCNN(CNNCampaign{
		Net: net, Input: cnn.LeNetInput(0), Model: CNNBitFlip,
		Injections: 150, Seed: 31, Critical: LeNetCritical,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LeNet bit-flip: %+v critical=%d", res.Tally, res.CriticalSDC)
	if res.Tally.Injections != 150 {
		t.Fatalf("injections = %d", res.Tally.Injections)
	}
	// CNNs mask aggressively (ReLU, pooling): PVF well below HPC codes.
	if res.PVF() > 0.5 {
		t.Errorf("LeNet PVF = %.2f, implausibly high", res.PVF())
	}
}

func TestCNNTileCampaignIsMoreSevere(t *testing.T) {
	db := testDB(t)
	net := cnn.NewLeNetLite()
	input := cnn.LeNetInput(0)
	tile, err := RunCNN(CNNCampaign{
		Net: net, Input: input, Model: CNNTile, DB: db,
		Injections: 150, Seed: 41, Critical: LeNetCritical,
	})
	if err != nil {
		t.Fatal(err)
	}
	flip, err := RunCNN(CNNCampaign{
		Net: net, Input: input, Model: CNNBitFlip,
		Injections: 150, Seed: 42, Critical: LeNetCritical,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LeNet: tile PVF=%.3f (crit %d) vs bitflip PVF=%.3f (crit %d)",
		tile.PVF(), tile.CriticalSDC, flip.PVF(), flip.CriticalSDC)
	// §VI: tile corruption drives PVF far above single-fault models.
	if tile.PVF() <= flip.PVF() {
		t.Errorf("tile PVF %.3f not above bit-flip PVF %.3f", tile.PVF(), flip.PVF())
	}
}

func TestYoloCampaignRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("yolo campaign is slow")
	}
	net := cnn.NewYoloLite()
	res, err := RunCNN(CNNCampaign{
		Net: net, Input: cnn.YoloInput(0), Model: CNNBitFlip,
		Injections: 40, Seed: 51, Critical: YoloCritical,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Yolo bit-flip: %+v critical=%d", res.Tally, res.CriticalSDC)
}

func TestOperandMagnitudeRangeSelection(t *testing.T) {
	// Covered indirectly by campaigns; spot-check the classifier.
	if faults.ClassifyMagnitude(1e-7) != faults.RangeSmall {
		t.Error("tiny value not Small")
	}
	if faults.ClassifyMagnitude(10) != faults.RangeMedium {
		t.Error("10 not Medium")
	}
	if faults.ClassifyMagnitude(1e10) != faults.RangeLarge {
		t.Error("1e10 not Large")
	}
}

func TestFigureProfileFormat(t *testing.T) {
	var c Counts
	c[isa.OpFFMA] = 70
	c[isa.OpIADD] = 20
	c[isa.OpMOV] = 10
	s := FigureProfile("test", c)
	if len(s) == 0 {
		t.Fatal("empty profile row")
	}
	sh := c.CategoryShares()
	if sh[isa.CatFP32] != 0.7 || sh[isa.CatINT32] != 0.2 || sh[isa.CatOther] != 0.1 {
		t.Errorf("shares = %v", sh)
	}
}

func TestInjectorAlwaysFires(t *testing.T) {
	// Every target index below InjectableTotal must hit an instruction.
	w := apps.NewMxM(8)
	profile, err := Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	total := profile.InjectableTotal()
	for _, frac := range []float64{0, 0.25, 0.5, 0.99} {
		in := &injector{
			target: uint64(float64(total) * frac),
			model:  ModelBitFlip,
			rng:    stats.NewRNG(1),
		}
		if _, err := w.Execute(emuHooks(in)); err != nil {
			t.Fatal(err)
		}
		if !in.fired {
			t.Errorf("target %d/%d did not fire", in.target, total)
		}
	}
}

// emuHooks wraps an injector into emulator hooks (test helper).
func emuHooks(in *injector) emu.Hooks {
	return emu.Hooks{Post: in.post}
}

func TestModuleFocusCampaign(t *testing.T) {
	db := testDB(t)
	mod := faults.ModFP32
	res, err := Run(Campaign{
		Workload: apps.NewMxM(16), Model: ModelSyndrome, DB: db,
		Injections: 60, Seed: 55, ModuleFocus: &mod,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Injections != 60 {
		t.Fatalf("injections = %d", res.Tally.Injections)
	}
	// Focusing on a module with no pools must still run (falls back to
	// the canonical 100% syndrome).
	ctl := faults.ModSFUCtl
	res2, err := Run(Campaign{
		Workload: apps.NewMxM(16), Model: ModelSyndrome, DB: db,
		Injections: 30, Seed: 56, ModuleFocus: &ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tally.Injections != 30 {
		t.Fatalf("fallback campaign broke: %+v", res2.Tally)
	}
}

func TestDoubleBitFlipChangesTwoBits(t *testing.T) {
	// Drive the injector directly through a minimal workload and verify
	// the recorded corruption flips exactly two bits.
	w := apps.NewMxM(8)
	profile, err := Profile(w)
	if err != nil {
		t.Fatal(err)
	}
	total := profile.InjectableTotal()
	r := stats.NewRNG(9)
	for trial := 0; trial < 20; trial++ {
		in := &injector{
			target: r.Uint64() % total,
			model:  ModelDoubleBitFlip,
			rng:    stats.NewRNG(uint64(trial)),
		}
		if _, err := w.Execute(emuHooks(in)); err != nil {
			continue // some corruptions crash; irrelevant here
		}
		if !in.fired {
			t.Fatalf("trial %d: injector did not fire", trial)
		}
		diff := in.oldBits ^ in.newBits
		n := 0
		for ; diff != 0; diff &= diff - 1 {
			n++
		}
		if n != 2 {
			t.Fatalf("double bit-flip changed %d bits", n)
		}
	}
}

func TestInjectionRecords(t *testing.T) {
	res, err := Run(Campaign{
		Workload: apps.NewMxM(16), Model: ModelBitFlip,
		Injections: 40, Seed: 77, RecordInjections: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 40 {
		t.Fatalf("records = %d", len(res.Records))
	}
	outcomes := map[faults.Outcome]int{}
	for _, rec := range res.Records {
		if !Injectable(rec.Op) {
			t.Errorf("recorded injection into %s", rec.Op)
		}
		if rec.OldBits == rec.NewBits {
			t.Errorf("record without corruption: %+v", rec)
		}
		outcomes[rec.Outcome]++
	}
	if outcomes[faults.SDC] != res.Tally.SDCs() || outcomes[faults.DUE] != res.Tally.DUEs {
		t.Errorf("record outcomes %v disagree with tally %+v", outcomes, res.Tally)
	}
	// Default: no records kept.
	res2, err := Run(Campaign{Workload: apps.NewMxM(16), Model: ModelBitFlip, Injections: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Records != nil {
		t.Error("records kept without RecordInjections")
	}
}

func TestToleranceRelaxesSDCCriterion(t *testing.T) {
	// With a generous tolerance, low-order bit-flips that survive to the
	// output stop counting as SDCs; PVF must not increase.
	w := apps.NewMxM(16)
	exact, err := Run(Campaign{Workload: w, Model: ModelBitFlip, Injections: 150, Seed: 88})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Run(Campaign{Workload: w, Model: ModelBitFlip, Injections: 150, Seed: 88, Tolerance: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("MxM PVF exact=%.3f tol(1e-3)=%.3f", exact.PVF(), loose.PVF())
	if loose.PVF() > exact.PVF() {
		t.Errorf("tolerance increased PVF: %.3f > %.3f", loose.PVF(), exact.PVF())
	}
	if loose.PVF() >= exact.PVF() {
		t.Log("note: no low-magnitude SDCs in this sample (acceptable)")
	}
}

// TestInjectionPanicNamesTheFault: a panic while one injection is simulated
// fails the campaign with an error naming the injection and the dynamic
// instruction it targets, re-drawn from its RNG stream.
func TestInjectionPanicNamesTheFault(t *testing.T) {
	w := apps.NewMxM(8)
	prep, err := PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	const seed, salt = 11, 0x9E3779B97F4A7C15
	s := &subject[[]uint32]{name: w.Name, injections: 6, seed: seed, salt: salt, workers: 1, shared: prep,
		exec:  func(replay.Runner) ([]uint32, error) { panic("emulator bug") },
		equal: slices.Equal[[]uint32]}
	_, err = s.run(context.Background())
	target := stats.NewRNG(seed^salt).Uint64() % prep.profile.InjectableTotal()
	want := fmt.Sprintf("swfi: MxM injection 0 (target %d): job 0 panicked: emulator bug", target)
	var jp *campaign.JobPanic
	if !errors.As(err, &jp) || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("got %v, want it to start %q", err, want)
	}
}
