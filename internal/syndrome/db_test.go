package syndrome

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/rtlfi"
	"gpufi/internal/stats"
)

// fakeMicroResult builds a synthetic campaign result with a power-law
// syndrome pool.
func fakeMicroResult(op isa.Opcode, rng faults.InputRange, mod faults.Module, seed uint64) *rtlfi.Result {
	r := stats.NewRNG(seed)
	pl := stats.PowerLaw{Alpha: 2.2, Xmin: 1e-4}
	res := &rtlfi.Result{Spec: rtlfi.Spec{Op: op, Range: rng, Module: mod, Seed: seed}}
	for i := 0; i < 500; i++ {
		res.Tally.Add(faults.SDC, 1)
		res.Syndromes = append(res.Syndromes, pl.Sample(r))
		res.BitsWrong = append(res.BitsWrong, 20+r.Intn(10))
		res.ThreadCounts = append(res.ThreadCounts, 1)
	}
	for i := 0; i < 1500; i++ {
		res.Tally.Add(faults.Masked, 0)
	}
	return res
}

func TestAddMicroBuildsEntry(t *testing.T) {
	db := New()
	e := db.AddMicro(fakeMicroResult(isa.OpFADD, faults.RangeMedium, faults.ModFP32, 1))
	if e.Fit == nil {
		t.Fatal("power-law fit missing")
	}
	if math.Abs(e.Fit.Alpha-2.2) > 0.3 {
		t.Errorf("alpha = %v, want ~2.2", e.Fit.Alpha)
	}
	if e.Hist.N != 500 {
		t.Errorf("hist N = %d", e.Hist.N)
	}
	if e.AvgBits < 20 || e.AvgBits > 30 {
		t.Errorf("avg bits = %v", e.AvgBits)
	}
	if len(e.Samples) != 500 {
		t.Errorf("samples = %d", len(e.Samples))
	}
	if e.Median <= 0 {
		t.Errorf("median = %v", e.Median)
	}
}

func TestReservoirCaps(t *testing.T) {
	xs := make([]float64, 3*MaxSamples)
	for i := range xs {
		xs[i] = float64(i)
	}
	out := reservoir(xs, MaxSamples, 7)
	if len(out) != MaxSamples {
		t.Fatalf("reservoir len = %d", len(out))
	}
	// Contains elements beyond the first MaxSamples (it actually sampled).
	seenLate := false
	for _, v := range out {
		if v >= float64(MaxSamples) {
			seenLate = true
		}
	}
	if !seenLate {
		t.Error("reservoir never replaced early elements")
	}
}

func TestSampleCocktailAcrossModules(t *testing.T) {
	db := New()
	db.AddMicro(fakeMicroResult(isa.OpFADD, faults.RangeMedium, faults.ModFP32, 1))
	db.AddMicro(fakeMicroResult(isa.OpFADD, faults.RangeMedium, faults.ModPipe, 2))
	r := stats.NewRNG(3)
	for i := 0; i < 100; i++ {
		v, ok := db.Sample(isa.OpFADD, faults.RangeMedium, SamplePowerLaw, r)
		if !ok || v <= 0 {
			t.Fatalf("sample %d: %v %v", i, v, ok)
		}
	}
	// Empirical mode too.
	v, ok := db.Sample(isa.OpFADD, faults.RangeMedium, SampleEmpirical, r)
	if !ok || v <= 0 {
		t.Fatalf("empirical sample: %v %v", v, ok)
	}
}

func TestSampleFallsBackAcrossRanges(t *testing.T) {
	db := New()
	db.AddMicro(fakeMicroResult(isa.OpIMUL, faults.RangeLarge, faults.ModINT, 4))
	r := stats.NewRNG(5)
	if _, ok := db.Sample(isa.OpIMUL, faults.RangeSmall, SamplePowerLaw, r); !ok {
		t.Error("expected fallback to the large-range pool")
	}
	if _, ok := db.Sample(isa.OpFSIN, faults.RangeSmall, SamplePowerLaw, r); ok {
		t.Error("uncharacterised opcode must report !ok")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	db := New()
	db.AddMicro(fakeMicroResult(isa.OpFADD, faults.RangeSmall, faults.ModFP32, 1))
	db.AddMicro(fakeMicroResult(isa.OpIADD, faults.RangeLarge, faults.ModSched, 2))
	db.AddTMXM(fakeTMXMResult(faults.ModSched, mxm.TileMax, 9))

	blob, err := json.Marshal(db)
	if err != nil {
		t.Fatal(err)
	}
	var back DB
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 2 || len(back.TMXM) != 1 {
		t.Fatalf("round trip lost entries: %d/%d", len(back.Entries), len(back.TMXM))
	}
	e, ok := back.Lookup(isa.OpFADD, faults.RangeSmall, faults.ModFP32)
	if !ok || e.Tally.SDCs() != 500 {
		t.Fatalf("lookup after round trip: %+v %v", e, ok)
	}
	r := stats.NewRNG(1)
	if _, ok := back.Sample(isa.OpIADD, faults.RangeLarge, SamplePowerLaw, r); !ok {
		t.Error("sampling from deserialised DB failed")
	}
	if _, ok := back.SampleTile(r); !ok {
		t.Error("tile sampling from deserialised DB failed")
	}
}

// TestMarshalJSONMatchesWholeDBEncoding holds the entry-by-entry assembly
// to the encoding it replaced — one json.Marshal of the whole dbJSON — on
// a database that grows out of canonical order, with either section empty
// along the way.
func TestMarshalJSONMatchesWholeDBEncoding(t *testing.T) {
	whole := func(db *DB) []byte {
		out := dbJSON{}
		for _, op := range isa.AllOpcodes() {
			for _, rng := range faults.AllRanges() {
				for _, mod := range faults.AllModules() {
					if e, ok := db.Entries[Key{Op: op, Range: rng, Module: mod}]; ok {
						out.Entries = append(out.Entries, e)
					}
				}
			}
		}
		for _, mod := range faults.AllModules() {
			for _, kind := range mxm.AllTileKinds() {
				if e, ok := db.TMXM[TMXMKey{Module: mod, Kind: kind}]; ok {
					out.TMXM = append(out.TMXM, e)
				}
			}
		}
		blob, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	db := New()
	steps := []func(){
		func() {},
		func() { db.AddTMXM(fakeTMXMResult(faults.ModPipe, mxm.TileRandom, 4)) },
		func() { db.AddMicro(fakeMicroResult(isa.OpIADD, faults.RangeLarge, faults.ModSched, 2)) },
		func() { db.AddMicro(fakeMicroResult(isa.OpFADD, faults.RangeSmall, faults.ModFP32, 1)) },
		func() { db.AddTMXM(fakeTMXMResult(faults.ModSched, mxm.TileMax, 9)) },
		func() { db.TMXM = map[TMXMKey]*TMXMEntry{} },
	}
	for i, step := range steps {
		step()
		got, err := json.Marshal(db)
		if err != nil {
			t.Fatal(err)
		}
		if want := whole(db); !bytes.Equal(got, want) {
			t.Fatalf("step %d (%d entries, %d t-MxM): MarshalJSON differs from the whole-database encoding\n got %.120s\nwant %.120s",
				i, len(db.Entries), len(db.TMXM), got, want)
		}
	}
}

func fakeTMXMResult(mod faults.Module, kind mxm.TileKind, seed uint64) *rtlfi.TMXMResult {
	r := stats.NewRNG(seed)
	pl := stats.PowerLaw{Alpha: 2.0, Xmin: 1e-3}
	res := &rtlfi.TMXMResult{
		Spec:        rtlfi.TMXMSpec{Module: mod, Kind: kind, Seed: seed},
		PatternErrs: make(map[faults.Pattern][]float64),
	}
	dist := map[faults.Pattern]int{
		faults.PatSingle: 40,
		faults.PatRow:    30,
		faults.PatAll:    20,
		faults.PatBlock:  10,
	}
	for pat, n := range dist {
		res.Patterns[pat] = n
		for i := 0; i < n; i++ {
			threads := 1
			if pat != faults.PatSingle {
				threads = 8
			}
			res.Tally.Add(faults.SDC, threads)
			for k := 0; k < threads; k++ {
				res.PatternErrs[pat] = append(res.PatternErrs[pat], pl.Sample(r))
			}
		}
	}
	for i := 0; i < 900; i++ {
		res.Tally.Add(faults.Masked, 0)
	}
	return res
}

func TestSampleTileGeometry(t *testing.T) {
	db := New()
	db.AddTMXM(fakeTMXMResult(faults.ModPipe, mxm.TileRandom, 21))
	r := stats.NewRNG(2)
	counts := make(map[faults.Pattern]int)
	for i := 0; i < 2000; i++ {
		tc, ok := db.SampleTile(r)
		if !ok {
			t.Fatal("no tile sample")
		}
		counts[tc.Pattern]++
		// Mask and errors consistent.
		for j, bad := range tc.Mask {
			if bad && tc.RelErr[j] <= 0 {
				t.Fatalf("corrupted element %d without relative error", j)
			}
			if !bad && tc.RelErr[j] != 0 {
				t.Fatalf("uncorrupted element %d has error", j)
			}
		}
		// Geometry invariants per pattern.
		switch tc.Pattern {
		case faults.PatSingle:
			if tc.Count() != 1 {
				t.Fatalf("single pattern with %d elements", tc.Count())
			}
		case faults.PatAll:
			if tc.Count() != 64 {
				t.Fatalf("all pattern with %d elements", tc.Count())
			}
		case faults.PatRow:
			rows := map[int]bool{}
			for j, bad := range tc.Mask {
				if bad {
					rows[j/8] = true
				}
			}
			if len(rows) != 1 {
				t.Fatalf("row pattern spans %d rows", len(rows))
			}
		}
	}
	// Sampled pattern shares follow the stored census (40/30/20/10).
	if counts[faults.PatSingle] < 600 || counts[faults.PatRow] < 400 {
		t.Errorf("pattern distribution off: %v", counts)
	}
}

func TestSampleTileEmptyDB(t *testing.T) {
	db := New()
	if _, ok := db.SampleTile(stats.NewRNG(1)); ok {
		t.Error("empty DB must not sample tiles")
	}
}

func TestEndToEndFromRealCampaign(t *testing.T) {
	// Integration: a real (small) RTL campaign feeds the DB and sampling
	// works.
	res, err := rtlfi.RunMicroCtx(context.Background(), rtlfi.Spec{
		Op: isa.OpFFMA, Range: faults.RangeMedium, Module: faults.ModFP32,
		NumFaults: 600, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := New()
	e := db.AddMicro(res)
	if e.Tally.SDCs() == 0 {
		t.Fatal("campaign produced no SDCs")
	}
	r := stats.NewRNG(8)
	for i := 0; i < 50; i++ {
		if _, ok := db.Sample(isa.OpFFMA, faults.RangeMedium, SampleEmpirical, r); !ok {
			t.Fatal("sampling real campaign failed")
		}
	}
	t.Logf("FFMA/M/FP32: sdc=%d avgBits=%.1f median=%.3g fit=%+v",
		e.Tally.SDCs(), e.AvgBits, e.Median, e.Fit)
}

// Lookup returns the entry for an exact key.
func (db *DB) Lookup(op isa.Opcode, rng faults.InputRange, mod faults.Module) (*Entry, bool) {
	e, ok := db.Entries[Key{Op: op, Range: rng, Module: mod}]
	return e, ok
}
