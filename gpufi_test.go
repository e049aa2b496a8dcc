package gpufi

import (
	"context"
	"path/filepath"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
)

func tinyCharacterization(t *testing.T) *Characterization {
	t.Helper()
	c, err := CharacterizeCtx(context.Background(), CharacterizeConfig{
		FaultsPerCampaign: 200,
		TMXMFaults:        300,
		Seed:              1,
		Ops:               []isa.Opcode{isa.OpFFMA, isa.OpIADD},
		Ranges:            []faults.InputRange{faults.RangeMedium},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFacadeEndToEnd(t *testing.T) {
	c := tinyCharacterization(t)
	evals, err := EvaluateHPCCtx(context.Background(), c.DB, []*Workload{NewMxM(16)}, EvalConfig{Injections: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 1 || evals[0].BitFlip.Tally.Injections != 40 {
		t.Fatalf("unexpected evaluation %+v", evals)
	}
}

func TestFacadeDBRoundTrip(t *testing.T) {
	c := tinyCharacterization(t)
	path := filepath.Join(t.TempDir(), "db.json")
	if err := SaveDB(c.DB, path); err != nil {
		t.Fatal(err)
	}
	db, err := LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Entries) != len(c.DB.Entries) || len(db.TMXM) != len(c.DB.TMXM) {
		t.Errorf("round trip lost entries")
	}
	// The loaded DB drives a syndrome campaign.
	res, err := RunCampaignCtx(context.Background(), Campaign{
		Workload: NewMxM(16), Model: ModelSyndrome, DB: db,
		Injections: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Injections != 20 {
		t.Errorf("injections = %d", res.Tally.Injections)
	}
}

func TestFacadeSuiteAndProfiles(t *testing.T) {
	suite := HPCSuite()
	if len(suite) != 6 {
		t.Fatalf("suite = %d apps", len(suite))
	}
	counts, err := Profile(NewLava(2, 16))
	if err != nil {
		t.Fatal(err)
	}
	if counts.Total() == 0 {
		t.Error("empty profile")
	}
}

func TestFacadeCNNHelpers(t *testing.T) {
	net := NewLeNetLite()
	res, err := RunCNNCampaignCtx(context.Background(), CNNCampaign{
		Net: net, Input: LeNetInput(0), Model: 0, /* bit-flip */
		Injections: 20, Seed: 4, Critical: LeNetCritical,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Injections != 20 {
		t.Errorf("injections = %d", res.Tally.Injections)
	}
}
