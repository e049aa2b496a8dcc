package swfi

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gpufi/internal/emu"
	"gpufi/internal/replay"
)

// The oracle is the naive engine every software campaign is held to:
// injection i runs alone on replay.Plain, from the first instruction to
// the last with its hooks armed throughout. It shares the subject
// description, the per-injection RNG stream, the injector and the grading
// with the engine — no preparation trace, Recorder, Player, Pool or
// campaign kernel.

// oracle runs s's campaign on the naive engine. Its Counters.SimInstrs is
// every thread-instruction the injection runs executed.
func oracle[G any](t *testing.T, s *subject[G]) *summary[G] {
	t.Helper()
	plain := &replay.Plain{}
	golden, err := s.exec(plain)
	if err != nil {
		t.Fatalf("%s: golden run: %v", s.name, err)
	}
	profile := Counts(plain.Res.PerOpcode)
	injectable := profile.InjectableTotal()

	outs := make([]injection, s.injections)
	executed := make([]uint64, s.injections)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(outs); i = int(next.Add(1) - 1) {
				outs[i], executed[i] = oracleRun(s, golden, injectable, i)
			}
		}()
	}
	wg.Wait()

	res := &summary[G]{prep: &prepared[G]{golden: golden, profile: profile}, Counters: Counters{Injections: s.injections}}
	if s.records {
		res.records = make([]InjectionRecord, len(outs))
	}
	for i, o := range outs {
		res.tally.Add(o.outcome, 1)
		if o.critical {
			res.critical++
		}
		if s.records {
			res.records[i] = o.rec
		}
		res.SimInstrs += executed[i]
	}
	return res
}

// oracleRun is the oracle's injection i and the thread-instructions it
// executed.
func oracleRun[G any](s *subject[G], golden G, injectable uint64, i int) (injection, uint64) {
	r := s.rng(i)
	exec := s.exec
	var in *injector
	rt := &replay.Plain{}
	if s.tile != nil {
		var ok bool
		if _, exec, ok = s.tile(r); !ok {
			return injection{}, 0 // Masked: nothing injected
		}
	} else {
		in = s.injector(r, injectable)
		rt.Hooks = emu.Hooks{Post: in.post}
	}
	out, err := exec(checkRunner(rt))
	o, crit := s.grade(golden, out, err)
	inj := injection{outcome: o, critical: crit}
	if in != nil {
		inj.rec = InjectionRecord{Op: in.op, RelErr: in.relErr, OldBits: in.oldBits, NewBits: in.newBits, Outcome: o}
	}
	return inj, rt.Res.DynThreadInstrs
}

// checkHPC runs c on the engine and holds the result to the oracle's:
// the same tally, records and profile, and SimInstrs + SkippedInstrs equal
// to the thread-instructions the oracle's runs executed.
func checkHPC(t *testing.T, c Campaign) *Result {
	t.Helper()
	res, err := RunCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, c.subject())
	name := c.Workload.Name
	if res.Tally != want.tally {
		t.Errorf("%s: tally %+v, oracle %+v", name, res.Tally, want.tally)
	}
	if !reflect.DeepEqual(res.Records, want.records) {
		t.Errorf("%s: injection records differ from the oracle's", name)
	}
	if res.Profile != want.prep.profile || res.Injectable != want.prep.profile.InjectableTotal() {
		t.Errorf("%s: opcode profile differs from the oracle's", name)
	}
	checkInstrs(t, name, res.Counters, want.Counters)
	return res
}

// checkCNN is checkHPC for a CNN campaign: the same tally, critical SDCs
// and profile, and the same instruction total.
func checkCNN(t *testing.T, c CNNCampaign) *CNNResult {
	t.Helper()
	res, err := RunCNNCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, c.subject())
	name := c.Net.Name + "/" + c.Model.String()
	if res.Tally != want.tally || res.CriticalSDC != want.critical {
		t.Errorf("%s: tally %+v crit %d, oracle %+v crit %d", name, res.Tally, res.CriticalSDC, want.tally, want.critical)
	}
	if res.Profile != want.prep.profile {
		t.Errorf("%s: opcode profile differs from the oracle's", name)
	}
	checkInstrs(t, name, res.Counters, want.Counters)
	return res
}

// checkInstrs holds the engine's instruction accounting to the oracle's:
// what it simulated plus what it proved it need not is every
// thread-instruction the injection runs execute, and fast-forward skipped
// some of them.
func checkInstrs(t *testing.T, name string, got, want Counters) {
	t.Helper()
	if got.SimInstrs+got.SkippedInstrs != want.SimInstrs {
		t.Errorf("%s: %d simulated + %d skipped = %d instructions, oracle executed %d",
			name, got.SimInstrs, got.SkippedInstrs, got.SimInstrs+got.SkippedInstrs, want.SimInstrs)
	}
	if got.SkippedInstrs == 0 {
		t.Errorf("%s: fast-forward skipped no instructions", name)
	}
}
