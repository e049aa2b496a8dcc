// Package syndrome implements the paper's fault-model database (§III,
// §V-C): for every (opcode, input range, injection site) it stores the
// distribution of relative errors observed at the instruction output
// during RTL fault injection, together with the fitted power law used by
// Equation 1 to generate syndromes during software injection. The t-MxM
// section stores the spatial corruption patterns of Fig. 8 / Table II
// with their per-pattern error distributions (Fig. 9).
//
// The database is what the paper publishes in its public repository [23];
// it is serialisable to JSON so third-party evaluations can reuse it.
package syndrome

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
	"gpufi/internal/mxm"
	"gpufi/internal/rtlfi"
	"gpufi/internal/stats"
)

// MaxSamples caps the per-entry reservoir of raw relative errors kept for
// empirical sampling.
const MaxSamples = 4096

// Key identifies one syndrome pool.
type Key struct {
	Op     isa.Opcode        `json:"op"`
	Range  faults.InputRange `json:"range"`
	Module faults.Module     `json:"module"`
}

// String implements fmt.Stringer.
func (k Key) String() string {
	return fmt.Sprintf("%s/%s/%s", k.Op, k.Range, k.Module)
}

// Entry is the characterisation of one (opcode, range, module) pool.
type Entry struct {
	Key        Key             `json:"key"`
	Tally      faults.Tally    `json:"tally"`
	Hist       *stats.LogHist  `json:"hist"`              // Fig. 5/6 series
	Fit        *stats.PowerLaw `json:"fit,omitempty"`     // Eq. 1 parameters
	Samples    []float64       `json:"samples,omitempty"` // capped reservoir
	InfShare   float64         `json:"inf_share"`         // NaN/Inf corruption share
	Median     float64         `json:"median"`            // §V-C input-dependence statistic
	AvgBits    float64         `json:"avg_bits"`          // avg corrupted bits per word (§V-C)
	AvgThreads float64         `json:"avg_threads"`
	MultiShare float64         `json:"multi_share"`
}

// TMXMEntry is the characterisation of a t-MxM campaign (§V-D).
type TMXMEntry struct {
	Module         faults.Module                     `json:"module"`
	Kind           mxm.TileKind                      `json:"kind"`
	Tally          faults.Tally                      `json:"tally"`
	Patterns       [faults.NumPatterns]int           `json:"patterns"`
	PatternFits    map[faults.Pattern]stats.PowerLaw `json:"pattern_fits,omitempty"`
	PatternSamples map[faults.Pattern][]float64      `json:"pattern_samples,omitempty"`
}

// DB is the complete fault-model database.
type DB struct {
	Entries map[Key]*Entry
	TMXM    map[TMXMKey]*TMXMEntry
}

// TMXMKey identifies a t-MxM pool.
type TMXMKey struct {
	Module faults.Module `json:"module"`
	Kind   mxm.TileKind  `json:"kind"`
}

// New returns an empty database.
func New() *DB {
	return &DB{
		Entries: make(map[Key]*Entry),
		TMXM:    make(map[TMXMKey]*TMXMEntry),
	}
}

// AddMicro ingests one micro-benchmark campaign result.
func (db *DB) AddMicro(res *rtlfi.Result) *Entry {
	key := Key{Op: res.Spec.Op, Range: res.Spec.Range, Module: res.Spec.Module}
	e := &Entry{Key: key, Tally: res.Tally, Hist: stats.PaperHist()}

	finite := make([]float64, 0, len(res.Syndromes))
	infs := 0
	for _, s := range res.Syndromes {
		e.Hist.Add(s)
		if math.IsInf(s, 0) || math.IsNaN(s) {
			infs++
			continue
		}
		if s > 0 {
			finite = append(finite, s)
		}
	}
	if len(res.Syndromes) > 0 {
		e.InfShare = float64(infs) / float64(len(res.Syndromes))
	}
	if len(finite) > 0 {
		e.Median = stats.Summarize(finite).Median
	}
	if fit, err := stats.FitPowerLaw(finite); err == nil {
		e.Fit = &fit
	}
	e.Samples = reservoir(finite, MaxSamples, res.Spec.Seed^0x5150)
	if len(res.BitsWrong) > 0 {
		sum := 0
		for _, b := range res.BitsWrong {
			sum += b
		}
		e.AvgBits = float64(sum) / float64(len(res.BitsWrong))
	}
	e.AvgThreads = res.Tally.AvgThreads()
	e.MultiShare = res.Tally.MultiShare()
	db.Entries[key] = e
	return e
}

// AddTMXM ingests one t-MxM campaign result.
func (db *DB) AddTMXM(res *rtlfi.TMXMResult) *TMXMEntry {
	e := &TMXMEntry{
		Module:         res.Spec.Module,
		Kind:           res.Spec.Kind,
		Tally:          res.Tally,
		Patterns:       res.Patterns,
		PatternFits:    make(map[faults.Pattern]stats.PowerLaw),
		PatternSamples: make(map[faults.Pattern][]float64),
	}
	for pat, errs := range res.PatternErrs {
		if fit, err := stats.FitPowerLaw(errs); err == nil {
			e.PatternFits[pat] = fit
		}
		e.PatternSamples[pat] = reservoir(errs, MaxSamples, res.Spec.Seed^uint64(pat)<<8)
	}
	db.TMXM[TMXMKey{Module: res.Spec.Module, Kind: res.Spec.Kind}] = e
	return e
}

// reservoir keeps at most n elements of xs, deterministically.
func reservoir(xs []float64, n int, seed uint64) []float64 {
	if len(xs) <= n {
		return append([]float64(nil), xs...)
	}
	r := stats.NewRNG(seed)
	out := append([]float64(nil), xs[:n]...)
	for i := n; i < len(xs); i++ {
		if j := r.Intn(i + 1); j < n {
			out[j] = xs[i]
		}
	}
	return out
}

// dbJSON is the serialised form (maps with struct keys are not valid JSON).
type dbJSON struct {
	Entries []*Entry     `json:"entries"`
	TMXM    []*TMXMEntry `json:"tmxm"`
}

// MarshalJSON implements json.Marshaler.
func (db *DB) MarshalJSON() ([]byte, error) {
	entries, tmxm, err := db.EncodeEntries()
	if err != nil {
		return nil, err
	}
	return AppendJSON(nil, entries, tmxm), nil
}

// EncodeEntries serialises every entry on its own, keyed as in the
// database; AppendJSON puts such encodings together.
func (db *DB) EncodeEntries() (entries map[Key]json.RawMessage, tmxm map[TMXMKey]json.RawMessage, err error) {
	if entries, err = encodeEach(db.Entries); err != nil {
		return nil, nil, err
	}
	if tmxm, err = encodeEach(db.TMXM); err != nil {
		return nil, nil, err
	}
	return entries, tmxm, nil
}

func encodeEach[K comparable, E any](m map[K]*E) (map[K]json.RawMessage, error) {
	out := make(map[K]json.RawMessage, len(m))
	for k, e := range m {
		raw, err := json.Marshal(e)
		if err != nil {
			return nil, err
		}
		out[k] = raw
	}
	return out, nil
}

// AppendJSON appends to buf a database's serialised form built from entries
// already serialised one by one (json.Marshal of an *Entry or *TMXMEntry),
// in the canonical order: opcode, range, module, then t-MxM module and tile
// kind. It is the one place that order and the dbJSON framing are written
// down; DB.MarshalJSON goes through it, so a writer that keeps its entries'
// encodings — the job journal writes a growing database into each record —
// produces the same bytes without encoding an entry twice or assembling the
// database apart from the record.
func AppendJSON(buf []byte, entries map[Key]json.RawMessage, tmxm map[TMXMKey]json.RawMessage) []byte {
	var es, ts []json.RawMessage
	size := len(`{"entries":null,"tmxm":null}`)
	for _, op := range isa.AllOpcodes() {
		for _, rng := range faults.AllRanges() {
			for _, mod := range faults.AllModules() {
				if raw, ok := entries[Key{Op: op, Range: rng, Module: mod}]; ok {
					es = append(es, raw)
					size += len(raw) + 1
				}
			}
		}
	}
	for _, mod := range faults.AllModules() {
		for _, kind := range mxm.AllTileKinds() {
			if raw, ok := tmxm[TMXMKey{Module: mod, Kind: kind}]; ok {
				ts = append(ts, raw)
				size += len(raw) + 1
			}
		}
	}
	buf = slices.Grow(buf, size)
	buf = appendArray(append(buf, `{"entries":`...), es)
	buf = appendArray(append(buf, `,"tmxm":`...), ts)
	return append(buf, '}')
}

// appendArray appends items as a JSON array; none is null, which is how
// encoding/json writes the nil slice dbJSON would hold.
func appendArray(buf []byte, items []json.RawMessage) []byte {
	if len(items) == 0 {
		return append(buf, "null"...)
	}
	for i, raw := range items {
		if i == 0 {
			buf = append(buf, '[')
		} else {
			buf = append(buf, ',')
		}
		buf = append(buf, raw...)
	}
	return append(buf, ']')
}

// UnmarshalJSON implements json.Unmarshaler.
func (db *DB) UnmarshalJSON(data []byte) error {
	var in dbJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	db.Entries = make(map[Key]*Entry, len(in.Entries))
	db.TMXM = make(map[TMXMKey]*TMXMEntry, len(in.TMXM))
	for _, e := range in.Entries {
		db.Entries[e.Key] = e
	}
	for _, e := range in.TMXM {
		db.TMXM[TMXMKey{Module: e.Module, Kind: e.Kind}] = e
	}
	return nil
}

// entriesFor returns all entries matching op and range across modules (the
// paper's "cocktail of fault syndromes", §VI), weighted below by their SDC
// counts.
func (db *DB) entriesFor(op isa.Opcode, rng faults.InputRange) []*Entry {
	var out []*Entry
	for _, mod := range faults.AllModules() {
		if e, ok := db.Entries[Key{Op: op, Range: rng, Module: mod}]; ok && e.Tally.SDCs() > 0 {
			out = append(out, e)
		}
	}
	return out
}

// SampleMode selects how relative errors are drawn from an entry.
type SampleMode uint8

// Sampling modes.
const (
	SamplePowerLaw  SampleMode = iota // Eq. 1 on the fitted power law
	SampleEmpirical                   // draw from the raw reservoir
)

// Sample draws one syndrome relative error for an instruction with the
// given opcode and input range, pooling the per-module entries into the
// paper's cocktail. ok is false when the database has no syndromes for the
// opcode (the injection should then be skipped).
func (db *DB) Sample(op isa.Opcode, rng faults.InputRange, mode SampleMode, r *stats.RNG) (float64, bool) {
	entries := db.entriesFor(op, rng)
	if len(entries) == 0 {
		// Fall back to any range for this opcode.
		for _, rr := range faults.AllRanges() {
			if es := db.entriesFor(op, rr); len(es) > 0 {
				entries = es
				break
			}
		}
	}
	if len(entries) == 0 {
		return 0, false
	}
	// Weight modules by observed SDC counts.
	total := 0
	for _, e := range entries {
		total += e.Tally.SDCs()
	}
	pick := r.Intn(total)
	var e *Entry
	for _, cand := range entries {
		pick -= cand.Tally.SDCs()
		if pick < 0 {
			e = cand
			break
		}
	}
	return e.sample(mode, r), true
}

// MaxRelErr truncates the fitted power-law sampler. The paper observes
// fewer than 0.05% of syndromes above 1e2 (§V-C); an unbounded Eq. 1 tail
// fitted with a small alpha would instead produce astronomically large
// relative errors with non-trivial probability — a fitting artefact, not
// an observed fault effect.
const MaxRelErr = 1e2

// sample draws from one entry.
func (e *Entry) sample(mode SampleMode, r *stats.RNG) float64 {
	fitted := func() float64 {
		v := e.Fit.Sample(r)
		if v > MaxRelErr {
			v = MaxRelErr
		}
		return v
	}
	if mode == SamplePowerLaw && e.Fit != nil {
		return fitted()
	}
	if len(e.Samples) == 0 {
		if e.Fit != nil {
			return fitted()
		}
		return 1.0 // degenerate pool: the paper's canonical 100% example
	}
	return e.Samples[r.Intn(len(e.Samples))]
}

// SampleFrom draws a syndrome relative error from one specific module's
// pools only — the paper's module-focused evaluation mode ("It is
// obviously possible to focus the software fault injection in just one
// module", §VI). Range fallback applies as in Sample.
func (db *DB) SampleFrom(op isa.Opcode, rng faults.InputRange, mod faults.Module,
	mode SampleMode, r *stats.RNG) (float64, bool) {
	e, ok := db.Entries[Key{Op: op, Range: rng, Module: mod}]
	if !ok || e.Tally.SDCs() == 0 {
		for _, rr := range faults.AllRanges() {
			if cand, found := db.Entries[Key{Op: op, Range: rr, Module: mod}]; found && cand.Tally.SDCs() > 0 {
				e = cand
				ok = true
				break
			}
		}
	}
	if !ok || e.Tally.SDCs() == 0 {
		return 0, false
	}
	return e.sample(mode, r), true
}
