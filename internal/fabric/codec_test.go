package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"gpufi/internal/core"
	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/rtlfi"
	"gpufi/internal/syndrome"
)

// microUnit is a tiny micro-benchmark campaign for codec and coordinator
// tests; a few dozen faults keep it fast while still producing non-trivial
// syndromes.
func microUnit(seed uint64) core.Unit {
	return core.Unit{
		Kind: core.UnitMicro, Op: isa.OpFADD, Range: faults.RangeMedium,
		Module: faults.ModFP32, Faults: 40, Seed: seed,
	}
}

func runUnit(t *testing.T, u core.Unit, engineWorkers int) *core.UnitResult {
	t.Helper()
	res, err := core.RunUnit(context.Background(), u, engineWorkers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCanonicalAcrossWorkerCounts is the dedup precondition, and the
// reproducibility claim behind it: the same unit executed with different
// engine parallelism yields the same per-fault outputs in the same (job)
// order, so it encodes to the same bytes — the coordinator byte-compares
// duplicate completions — and builds a byte-identical syndrome database.
// The units are big enough that a worker-order merge would reorder them.
func TestCanonicalAcrossWorkerCounts(t *testing.T) {
	units := []core.Unit{
		{Kind: core.UnitMicro, Op: isa.OpFSIN, Range: faults.RangeMedium, Module: faults.ModPipe, Faults: 1500, Seed: 7},
		{Kind: core.UnitTMXM, Module: faults.ModPipe, Tile: mxm.TileRandom, Faults: 400, Seed: 9},
	}
	for _, u := range units {
		var base *core.UnitResult
		var baseWire, baseDB []byte
		for _, workers := range []int{1, 2, 3} {
			res := runUnit(t, u, workers)
			wire, err := EncodeUnitResult(res)
			if err != nil {
				t.Fatal(err)
			}
			char := &core.Characterization{DB: syndrome.New()}
			char.AddUnit(res)
			db, err := json.Marshal(char.DB)
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base, baseWire, baseDB = res, wire, db
				if m := res.Micro; m != nil && len(m.Syndromes) < 100 {
					t.Fatalf("%s: only %d syndromes; the merge order is barely exercised", u.Name(), len(m.Syndromes))
				}
				continue
			}
			if m, bm := res.Micro, base.Micro; m != nil {
				for name, pair := range map[string][2]any{
					"Syndromes":    {m.Syndromes, bm.Syndromes},
					"ThreadCounts": {m.ThreadCounts, bm.ThreadCounts},
					"BitsWrong":    {m.BitsWrong, bm.BitsWrong},
					"Details":      {m.Details, bm.Details},
				} {
					if !reflect.DeepEqual(pair[0], pair[1]) {
						t.Errorf("%s: %s differs between Workers 1 and %d", u.Name(), name, workers)
					}
				}
			} else if !reflect.DeepEqual(res.TMXM.PatternErrs, base.TMXM.PatternErrs) {
				t.Errorf("%s: PatternErrs differs between Workers 1 and %d", u.Name(), workers)
			}
			if !bytes.Equal(wire, baseWire) {
				t.Errorf("%s: encodings differ between Workers 1 and %d (%d vs %d bytes)", u.Name(), workers, len(baseWire), len(wire))
			}
			if !bytes.Equal(db, baseDB) {
				t.Errorf("%s: syndrome databases differ between Workers 1 and %d", u.Name(), workers)
			}
		}
		// Repeated encoding of the same result is stable too (map ordering
		// must not leak into the wire form).
		for i := 0; i < 5; i++ {
			again, err := EncodeUnitResult(base)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(baseWire, again) {
				t.Fatalf("%s: encoding attempt %d differs", u.Name(), i)
			}
		}
	}
}

// allCounters returns engine counters with every field set to a distinct
// non-zero value. The round-trip tests encode them, so a counter added to
// rtlfi.Counters cannot be dropped by the wire form silently.
func allCounters(t *testing.T) rtlfi.Counters {
	t.Helper()
	var c rtlfi.Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(100 + i))
		case reflect.Uint64:
			f.SetUint(uint64(100 + i))
		default:
			t.Fatalf("rtlfi.Counters.%s has kind %s; teach allCounters to fill it", v.Type().Field(i).Name, f.Kind())
		}
	}
	return c
}

// TestCodecRoundTripMicro checks decode(encode(x)) preserves everything
// the syndrome DB consumes, including non-finite relative errors that
// rule out JSON as the payload encoding.
func TestCodecRoundTripMicro(t *testing.T) {
	res := runUnit(t, microUnit(7), 1)
	res.Micro.Counters = allCounters(t)
	blob, err := EncodeUnitResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUnitResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Unit != res.Unit {
		t.Fatalf("unit round-trip: got %+v want %+v", got.Unit, res.Unit)
	}
	want := *res.Micro
	want.Spec.Workers = 0
	want.Spec.Progress = nil
	if !reflect.DeepEqual(*got.Micro, want) {
		t.Fatal("micro result did not survive the round trip")
	}
	// Re-encoding the decoded result reproduces the original bytes: the
	// canonical form is a fixed point.
	blob2, err := EncodeUnitResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding a decoded result changed the bytes")
	}
}

// TestCodecRoundTripTMXM covers the map-flattening path: PatternErrs is
// rebuilt from the key-sorted wire form.
func TestCodecRoundTripTMXM(t *testing.T) {
	u := core.Unit{Kind: core.UnitTMXM, Module: faults.ModPipe, Tile: mxm.TileRandom, Faults: 300, Seed: 9}
	res := runUnit(t, u, 1)
	if len(res.TMXM.PatternErrs) == 0 {
		t.Fatal("test campaign produced no pattern errors; the map-flattening path is not exercised")
	}
	res.TMXM.Counters = allCounters(t)
	blob, err := EncodeUnitResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeUnitResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := *res.TMXM
	want.Spec.Workers = 0
	want.Spec.Progress = nil
	if !reflect.DeepEqual(got.TMXM.PatternErrs, want.PatternErrs) {
		t.Fatalf("PatternErrs round-trip: got %v want %v", got.TMXM.PatternErrs, want.PatternErrs)
	}
	if !reflect.DeepEqual(*got.TMXM, want) {
		t.Fatal("t-MxM result did not survive the round trip")
	}
	blob2, err := EncodeUnitResult(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding a decoded t-MxM result changed the bytes")
	}
}
