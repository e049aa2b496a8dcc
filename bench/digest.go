package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gpufi/internal/faults"
	"gpufi/internal/syndrome"
)

// A pass digest covers the simulated statistics only — tallies, PVFs,
// the syndrome database and the sim+skipped conservation sums — which
// must be identical for every worker count and every accelerator
// setting. The engine's own split of that work (pruned, collapsed,
// marched, sim vs skipped) is reported beside it as the pass's exact
// counters: it repeats bit-for-bit on one commit, and an engine change
// may move it without changing a single simulated result.

// unitStat is the digested part of one RTL plan unit.
type unitStat struct {
	Unit   string       `json:"unit"`
	Seed   uint64       `json:"seed"`
	Tally  faults.Tally `json:"tally"`
	Cycles uint64       `json:"cycles"` // simulated + skipped
}

// campStat is the digested part of one software campaign.
type campStat struct {
	App      string       `json:"app"`
	Model    string       `json:"model"`
	Tally    faults.Tally `json:"tally"`
	PVF      float64      `json:"pvf"`
	Critical int          `json:"critical_sdc"`
	Instrs   uint64       `json:"instrs"` // simulated + skipped
}

// passStats is everything a pass hands to the digest.
type passStats struct {
	Units   []unitStat      `json:"units,omitempty"`
	DB      json.RawMessage `json:"db,omitempty"`
	HPC     []campStat      `json:"hpc,omitempty"`
	CNN     []campStat      `json:"cnn,omitempty"`
	Reports json.RawMessage `json:"reports,omitempty"`

	// Undigested campaigns are tally-checked like the others but kept
	// out of the digest: see hpcPhase.
	Undigested []campStat `json:"-"`
}

// digest hashes the statistics; call it on a finished pass (passOut.finish).
func (s *passStats) digest() string {
	blob, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("bench: digest: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// dbProjection is the worker-count-invariant part of a syndrome database:
// every entry with its tally, histogram, fit and summary statistics, minus
// the raw sample reservoirs. rtlfi merges a campaign's syndromes in
// worker order, so reservoir order (and, past syndrome.MaxSamples, its
// membership) depends on Workers while everything derived from the
// sorted sample does not.
func dbProjection(db *syndrome.DB) (json.RawMessage, error) {
	blob, err := json.Marshal(db)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Entries []map[string]json.RawMessage `json:"entries"`
		TMXM    []map[string]json.RawMessage `json:"tmxm"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, err
	}
	for _, e := range doc.Entries {
		delete(e, "samples")
	}
	for _, e := range doc.TMXM {
		delete(e, "pattern_samples")
	}
	return json.Marshal(doc)
}

//go:embed expected/*.json
var expectedFS embed.FS

// expectedKey names one committed digest.
func expectedKey(scale string, seed uint64, pass int) string {
	return fmt.Sprintf("%s/%d/%d", scale, seed, pass)
}

// loadExpected returns the committed digests of a workload, keyed by
// expectedKey; seeds and passes without an entry are simply unchecked.
func loadExpected(workload string) map[string]string {
	out := map[string]string{}
	blob, err := expectedFS.ReadFile("expected/" + workload + ".json")
	if err != nil {
		return out
	}
	if err := json.Unmarshal(blob, &out); err != nil {
		panic(fmt.Sprintf("bench: expected/%s.json: %v", workload, err))
	}
	return out
}

// updateExpected merges digests into dir/<workload>.json on disk.
func updateExpected(dir, workload string, digests map[string]string) error {
	path := filepath.Join(dir, workload+".json")
	merged := map[string]string{}
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &merged); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range digests {
		merged[k] = v
	}
	blob, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
