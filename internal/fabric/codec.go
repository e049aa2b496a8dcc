package fabric

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"gpufi/internal/core"
	"gpufi/internal/faults"
	"gpufi/internal/rtlfi"
)

// The wire encoding of a unit result must be canonical: the coordinator
// deduplicates double completions (stale leases, racing workers) by byte
// comparison, so two encodings of the same result must be identical no
// matter which worker produced them. The engine does most of that: a
// campaign's per-fault outputs (syndromes, details, pattern error pools)
// come back in job order for every worker count, so the result itself is
// the same value on every node. gob then writes struct fields in
// declaration order and skips func fields such as Spec.Progress, which
// leaves two things to handle here:
//
//   - TMXMResult.PatternErrs is a map, and gob serialises map entries in
//     random order; the wire form flattens it into key-sorted slices.
//   - Spec.Workers records the executing engine's worker count, the one
//     field that differs between nodes; it is normalised to zero.
//
// Syndrome relative errors can be +Inf (fp32.RelErr reports NaN/Inf
// corruption that way), which rules JSON out as the payload encoding;
// gob round-trips non-finite floats exactly.

// unitPayload is the gob wire form of one executed core.UnitResult.
type unitPayload struct {
	Unit  core.Unit
	Micro *rtlfi.Result
	TMXM  *tmxmWire
}

// tmxmWire is rtlfi.TMXMResult with its PatternErrs map moved out into
// parallel key-sorted slices. Embedding the whole result means a field
// added to it rides the wire without this file having to name it.
type tmxmWire struct {
	rtlfi.TMXMResult
	PatternKeys []faults.Pattern
	PatternPool [][]float64
}

// EncodeUnitResult canonically serialises an executed unit for the wire
// and for duplicate detection.
func EncodeUnitResult(res *core.UnitResult) ([]byte, error) {
	p := unitPayload{Unit: res.Unit}
	switch {
	case res.Micro != nil:
		micro := *res.Micro
		micro.Spec.Workers = 0
		micro.Spec.Progress = nil
		p.Micro = &micro
	case res.TMXM != nil:
		w := &tmxmWire{TMXMResult: *res.TMXM}
		w.Spec.Workers = 0
		w.Spec.Progress = nil
		for pat := range w.PatternErrs {
			w.PatternKeys = append(w.PatternKeys, pat)
		}
		sort.Slice(w.PatternKeys, func(i, j int) bool { return w.PatternKeys[i] < w.PatternKeys[j] })
		for _, pat := range w.PatternKeys {
			w.PatternPool = append(w.PatternPool, w.PatternErrs[pat])
		}
		w.PatternErrs = nil
		p.TMXM = w
	default:
		return nil, fmt.Errorf("fabric: unit result %s carries neither micro nor t-MxM result", res.Unit.Name())
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&p); err != nil {
		return nil, fmt.Errorf("fabric: encode unit result %s: %w", res.Unit.Name(), err)
	}
	return buf.Bytes(), nil
}

// DecodeUnitResult inverts EncodeUnitResult.
func DecodeUnitResult(blob []byte) (*core.UnitResult, error) {
	var p unitPayload
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&p); err != nil {
		return nil, fmt.Errorf("fabric: decode unit result: %w", err)
	}
	res := &core.UnitResult{Unit: p.Unit}
	switch {
	case p.Micro != nil:
		res.Micro = p.Micro
	case p.TMXM != nil:
		w := p.TMXM
		if len(w.PatternKeys) != len(w.PatternPool) {
			return nil, fmt.Errorf("fabric: unit result %s: %d pattern keys vs %d error pools", p.Unit.Name(), len(w.PatternKeys), len(w.PatternPool))
		}
		r := &w.TMXMResult
		if len(w.PatternKeys) > 0 {
			r.PatternErrs = make(map[faults.Pattern][]float64, len(w.PatternKeys))
			for i, pat := range w.PatternKeys {
				r.PatternErrs[pat] = w.PatternPool[i]
			}
		}
		res.TMXM = r
	default:
		return nil, fmt.Errorf("fabric: unit result %s carries neither micro nor t-MxM result", p.Unit.Name())
	}
	return res, nil
}
