package swfi

import (
	"math"
	"slices"
	"sync"
	"testing"

	"gpufi/internal/apps"
	"gpufi/internal/cnn"
	"gpufi/internal/emu"
	"gpufi/internal/replay"
	"gpufi/internal/stats"
)

// deadSample picks up to want dead countable indices, spread evenly over
// the index space so the sample crosses launches and opcodes.
func deadSample(lv *replay.Liveness, want int) []uint64 {
	total := lv.DeadSites()
	stride := total / uint64(want)
	if stride < 1 {
		stride = 1
	}
	var out []uint64
	var seen uint64
	for idx := uint64(0); idx < lv.Sites() && len(out) < want; idx++ {
		if _, dead := lv.Dead(idx); !dead {
			continue
		}
		if seen%stride == 0 {
			out = append(out, idx)
		}
		seen++
	}
	return out
}

// TestPruneCrossValidationHPC fully simulates ≥200 faults the dead-site
// index prunes and checks each one against the index's verdict and site
// record: the run must finish without a DUE, the final output must be
// bit-identical to golden (Masked), and the opcode, golden output bits
// and operand magnitude observed at fire time must equal the SiteInfo the
// prune path reproduces corruption draws from.
func TestPruneCrossValidationHPC(t *testing.T) {
	w := apps.NewHotspot(16, 4)
	prep, err := PrepareWorkload(w)
	if err != nil {
		t.Fatal(err)
	}
	crossValidateDeadSites(t, prep.trace, prep.profile.InjectableTotal(), func(in *injector, hooks emu.Hooks, pool *replay.Pool) ([]uint32, error) {
		p := replay.NewPlayer(prep.trace, in.target, hooks,
			func(c uint64) { in.counter = c }, func() bool { return in.fired }, pool)
		return w.ExecuteWith(p)
	}, prep.golden)
}

// TestPruneCrossValidationCNN is the CNN counterpart on LeNetLite.
func TestPruneCrossValidationCNN(t *testing.T) {
	net := cnn.NewLeNetLite()
	input := cnn.LeNetInput(0)
	prep, err := PrepareCNN(net, input)
	if err != nil {
		t.Fatal(err)
	}
	var goldenBits []uint32
	crossValidateDeadSites(t, prep.trace, prep.profile.InjectableTotal(), func(in *injector, hooks emu.Hooks, pool *replay.Pool) ([]uint32, error) {
		p := replay.NewPlayer(prep.trace, in.target, hooks,
			func(c uint64) { in.counter = c }, func() bool { return in.fired }, pool)
		out, err := net.RunWith(p, input, nil)
		if err != nil {
			return nil, err
		}
		bits := make([]uint32, len(out))
		for i, f := range out {
			bits[i] = floatBits(f)
		}
		return bits, nil
	}, func() []uint32 {
		if goldenBits == nil {
			goldenBits = make([]uint32, len(prep.golden))
			for i, f := range prep.golden {
				goldenBits[i] = floatBits(f)
			}
		}
		return goldenBits
	}())
}

func floatBits(f float32) uint32 { return math.Float32bits(f) }

// crossValidateDeadSites simulates ≥200 dead-indexed faults end to end.
func crossValidateDeadSites(t *testing.T, tr *replay.Trace, injectable uint64,
	run func(*injector, emu.Hooks, *replay.Pool) ([]uint32, error), golden []uint32) {
	t.Helper()
	lv := tr.Live
	if lv == nil {
		t.Fatal("trace has no liveness index")
	}
	sample := deadSample(lv, 220)
	if len(sample) < 200 {
		t.Fatalf("only %d dead sites available, need ≥200 for cross-validation", len(sample))
	}
	pool := &replay.Pool{}
	for _, idx := range sample {
		site, dead := lv.Dead(idx)
		if !dead {
			t.Fatalf("site %d lost its dead verdict", idx)
		}
		in := &injector{target: idx, model: ModelBitFlip, rng: stats.NewRNG(0xC0FFEE ^ idx)}
		var gotMag float64
		var gotOld uint32
		var sawFire bool
		hooks := emu.Hooks{Post: func(ev *emu.Event) {
			if !in.fired && Injectable(ev.Instr.Op) {
				n := uint64(ev.ActiveCount())
				if in.counter+n > in.target {
					lane := ev.NthActiveLane(int(in.target - in.counter))
					gotMag = operandMagnitude(ev, lane)
					gotOld, _ = ev.DstValue(lane)
					sawFire = true
				}
			}
			in.post(ev)
		}}
		out, err := run(in, hooks, pool)
		if err != nil {
			t.Fatalf("site %d: pruned fault caused a DUE: %v", idx, err)
		}
		if !sawFire || !in.fired {
			t.Fatalf("site %d: injector never fired", idx)
		}
		if !slices.Equal(golden, out) {
			t.Fatalf("site %d (op %v): pruned fault changed the output — dead verdict is wrong", idx, site.Op)
		}
		if site.Op != in.op {
			t.Errorf("site %d: SiteInfo op %v, fired op %v", idx, site.Op, in.op)
		}
		if site.OldBits != gotOld {
			t.Errorf("site %d: SiteInfo old bits %#x, observed %#x", idx, site.OldBits, gotOld)
		}
		if site.Mag != gotMag {
			t.Errorf("site %d: SiteInfo magnitude %v, observed %v", idx, site.Mag, gotMag)
		}
	}
	t.Logf("cross-validated %d pruned faults by full simulation", len(sample))
}

// swLatticeModes is the full NoPrune × NoFastForward mode lattice.
// NoFastForward implies NoPrune, so its two combinations must reduce to
// the same plain full-replay campaign.
var swLatticeModes = []struct {
	name          string
	noPrune, noFF bool
}{
	{"Pruned", false, false},
	{"FastForward", true, false},
	{"FullReplay", true, true},
	{"FullReplay/prune", false, true},
}

// TestModeLatticeBitIdentical: every point of the mode lattice yields the
// same tally and per-injection records on a pure-host workload (Hotspot,
// high dead rate) and an impure-host one (Quicksort, reconvergence
// disabled). The engine must prune nothing on the NoPrune arms and report
// the impure-host reason only where it holds.
func TestModeLatticeBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		w    *apps.Workload
		n    int
		pure bool
	}{
		{apps.NewHotspot(16, 4), 120, true},
		{apps.NewQuicksort(128), 120, false},
	} {
		t.Run(tc.w.Name, func(t *testing.T) {
			var baseline *Result
			for _, m := range swLatticeModes {
				res, err := Run(Campaign{
					Workload: tc.w, Model: ModelBitFlip,
					Injections: tc.n, Seed: 29,
					NoPrune: m.noPrune, NoFastForward: m.noFF,
					RecordInjections: true,
				})
				if err != nil {
					t.Fatalf("%s: %v", m.name, err)
				}
				if baseline == nil {
					baseline = res
					if !m.noPrune && tc.pure && res.PrunedFaults == 0 {
						t.Errorf("%s: default engine pruned nothing on a 33%%-dead workload", m.name)
					}
					continue
				}
				if res.Tally != baseline.Tally {
					t.Errorf("%s: tally %+v, baseline %+v", m.name, res.Tally, baseline.Tally)
				}
				for i := range res.Records {
					if res.Records[i] != baseline.Records[i] {
						t.Fatalf("%s: record %d = %+v, baseline %+v", m.name, i, res.Records[i], baseline.Records[i])
					}
				}
				if m.noPrune && res.PrunedFaults != 0 {
					t.Errorf("%s: pruned %d faults with pruning disabled", m.name, res.PrunedFaults)
				}
				if m.noFF && (res.PrunedFaults != 0 || res.SimInstrs != 0) {
					t.Errorf("%s: full replay reported accelerator telemetry %d/%d",
						m.name, res.PrunedFaults, res.SimInstrs)
				}
				wantReason := !tc.pure && !m.noFF
				if gotReason := res.NoReconvergeReason != ""; gotReason != wantReason {
					t.Errorf("%s: NoReconvergeReason = %q, want set=%v", m.name, res.NoReconvergeReason, wantReason)
				}
			}
		})
	}
}

// TestModeLatticeSyndrome: the prune path reproduces the syndrome model's
// corruption draws — which depend on the recorded operand magnitude —
// bit-identically.
func TestModeLatticeSyndrome(t *testing.T) {
	db := testDB(t)
	base := Campaign{
		Workload: apps.NewHotspot(16, 4), Model: ModelSyndrome, DB: db,
		Injections: 150, Seed: 31, RecordInjections: true,
	}
	pruned, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	full := base
	full.NoPrune = true
	fullRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.PrunedFaults == 0 {
		t.Fatal("syndrome campaign pruned nothing on a heavily dead workload")
	}
	if pruned.Tally != fullRes.Tally {
		t.Fatalf("tally diverged: pruned %+v, full %+v", pruned.Tally, fullRes.Tally)
	}
	for i := range fullRes.Records {
		if pruned.Records[i] != fullRes.Records[i] {
			t.Fatalf("record %d diverged: pruned %+v, full %+v", i, pruned.Records[i], fullRes.Records[i])
		}
	}
}

// TestCNNModeLattice: the CNN instruction-model lattice is bit-identical
// across all mode combinations (tally, critical-SDC count).
func TestCNNModeLattice(t *testing.T) {
	net := cnn.NewLeNetLite()
	input := cnn.LeNetInput(0)
	prep, err := PrepareCNN(net, input)
	if err != nil {
		t.Fatal(err)
	}
	var baseline *CNNResult
	for _, m := range swLatticeModes {
		c := CNNCampaign{
			Net: net, Input: input, Model: CNNBitFlip,
			Injections: 80, Seed: 37, Critical: LeNetCritical,
			NoPrune: m.noPrune, NoFastForward: m.noFF,
		}
		if !m.noFF {
			c.Prepared = prep
		}
		res, err := RunCNN(c)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		if res.Tally != baseline.Tally || res.CriticalSDC != baseline.CriticalSDC {
			t.Errorf("%s: tally %+v crit %d, baseline %+v crit %d",
				m.name, res.Tally, res.CriticalSDC, baseline.Tally, baseline.CriticalSDC)
		}
		if m.noPrune && res.PrunedFaults != 0 {
			t.Errorf("%s: pruned %d faults with pruning disabled", m.name, res.PrunedFaults)
		}
	}
}

// TestSWProgressThrottled mirrors internal/rtlfi's progress-throttle test
// for the software campaign: ~1/1000 granularity with a guaranteed final
// (total, total) call. The kernel's own throttle test is in
// internal/campaign.
func TestSWProgressThrottled(t *testing.T) {
	const n = 5000
	var (
		mu       sync.Mutex
		calls    int
		sawFinal bool
	)
	check := func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if total != n {
			t.Errorf("progress total = %d, want %d", total, n)
		}
		if done < 1 || done > total {
			t.Errorf("progress done = %d outside [1, %d]", done, total)
		}
		if done == total {
			sawFinal = true
		}
	}
	assertThrottled := func(t *testing.T, completed int) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if completed != n {
			t.Fatalf("campaign completed %d injections, want %d", completed, n)
		}
		if !sawFinal {
			t.Error("final (total, total) progress call never arrived")
		}
		if max := n/(n/1000) + 10; calls > max {
			t.Errorf("progress fired %d times for %d injections, want <= %d (throttled)", calls, n, max)
		}
		if calls == 0 {
			t.Error("progress never fired")
		}
	}

	t.Run("Campaign", func(t *testing.T) {
		res, err := Run(Campaign{
			Workload: apps.NewMxM(8), Model: ModelBitFlip,
			Injections: n, Seed: 41, Progress: check,
		})
		if err != nil {
			t.Fatal(err)
		}
		assertThrottled(t, res.Tally.Injections)
	})
}
