package swfi

import (
	"context"
	"fmt"
	"time"

	"gpufi/internal/campaign"
	"gpufi/internal/emu"
	"gpufi/internal/faults"
	"gpufi/internal/replay"
	"gpufi/internal/stats"
	"gpufi/internal/syndrome"
)

// This file is the campaign runner shared by the HPC and CNN campaigns:
// pick the preparation and run the injections on the campaign kernel,
// each one simulated under a fast-forwarding player from the checkpoint
// trace. RunCtx and RunCNNCtx are adapters that describe their subject and
// shape the result.

// Counters is the software campaign engine's accounting over one or more
// campaigns. Campaign results embed it, job journals carry it, and the
// job status view aggregates it with Merge.
type Counters struct {
	// Injections is the number of injections the counters cover; kept out
	// of the JSON form like rtlfi.Counters.Injections.
	Injections int `json:"-"`

	// SimInstrs counts the thread-instructions actually simulated across
	// all injection runs; SkippedInstrs counts those the engine provably
	// avoided (restored snapshot prefixes, and launches and blocks replayed
	// from their recorded writes). Their sum is every thread-instruction the
	// injection runs execute.
	SimInstrs     uint64 `json:"sim_instrs"`
	SkippedInstrs uint64 `json:"skipped_instrs"`

	// Deprecated: always 0; kept for bench/ and old journals until ROADMAP 1(a)/2(c).
	PrunedFaults uint64 `json:"pruned_faults"`

	// Deprecated: always 0; kept for bench/ and old journals until ROADMAP 1(a).
	CollapsedFaults uint64 `json:"collapsed_faults"`
}

// Merge accumulates another campaign's (or worker's) counters.
func (c *Counters) Merge(o Counters) {
	c.Injections += o.Injections
	c.SimInstrs += o.SimInstrs
	c.SkippedInstrs += o.SkippedInstrs
}

// FFSpeedup is the effective replay speedup: all thread-instructions of
// the injection runs over those actually simulated. 0 when nothing was
// simulated.
func (c Counters) FFSpeedup() float64 {
	if c.SimInstrs == 0 {
		return 0
	}
	return float64(c.SimInstrs+c.SkippedInstrs) / float64(c.SimInstrs)
}

// EmuMIPS is the emulated-instruction throughput over a wall-clock span:
// simulated thread-instructions per microsecond (i.e. millions of
// instructions per second).
func (c Counters) EmuMIPS(elapsed time.Duration) float64 { return mips(c.SimInstrs, elapsed) }

// EffectiveMIPS is the virtual throughput including the instructions the
// engine provably avoided simulating (fast-forward).
func (c Counters) EffectiveMIPS(elapsed time.Duration) float64 {
	return mips(c.SimInstrs+c.SkippedInstrs, elapsed)
}

func mips(instrs uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(instrs) / d.Seconds() / 1e6
}

// injection is one injection's resolved effect: what the campaign folds
// per run.
type injection struct {
	outcome  faults.Outcome
	critical bool            // CNN: the SDC changes the network's decision
	rec      InjectionRecord // audit record, kept under RecordInjections
}

// subject describes the thing under test — an HPC workload or a CNN, with
// golden output type G — and the campaign to run on it.
type subject[G any] struct {
	name       string
	model      FaultModel // instruction-level corruption model; unused when tile is set
	db         *syndrome.DB
	focus      *faults.Module
	injections int
	seed, salt uint64 // injection i's RNG stream is seed ^ salt*(i+1)
	workers    int
	records    bool
	progress   func(done, total int)

	shared  *prepared[G]                 // caller's preparation, or nil
	prepare func() (*prepared[G], error) // a fresh one

	// exec runs the subject once on rt. equal and critical grade its
	// output against the golden one (critical may be nil).
	exec     func(rt replay.Runner) (G, error)
	equal    func(golden, out G) bool
	critical func(golden, out G) bool

	// tile, when non-nil, replaces instruction-level injection with a
	// corruption the host applies between launches (the CNN tile model):
	// it draws one and returns the last launch that can be replayed from
	// its write-set plus the run that applies it. ok false means nothing
	// can be injected (no characterisation).
	tile func(r *stats.RNG) (lastSkipped int, exec func(rt replay.Runner) (G, error), ok bool)
}

// rng is injection i's RNG stream.
func (s *subject[G]) rng(i int) *stats.RNG { return stats.NewRNG(s.seed ^ s.salt*uint64(i+1)) }

// injector draws injection r's target among the subject's injectable
// thread-instructions and builds the injector that corrupts it.
func (s *subject[G]) injector(r *stats.RNG, injectable uint64) *injector {
	return &injector{target: r.Uint64() % injectable, model: s.model, db: s.db, focus: s.focus, rng: r}
}

// draw builds the run of the injection stream r picks: a player from trace
// tr, the execution it drives and, for an instruction-level model, the
// injector. p is nil when there is nothing to inject.
func (s *subject[G]) draw(tr *replay.Trace, injectable uint64, pool *replay.Pool, r *stats.RNG) (p *replay.Player, exec func(replay.Runner) (G, error), in *injector) {
	if s.tile != nil {
		last, exec, ok := s.tile(r)
		if !ok {
			return nil, nil, nil
		}
		// The tile is applied by host code after launch last, so every
		// launch up to and including it replays from its write-set.
		return replay.NewPlayerSkipTo(tr, last, pool), exec, nil
	}
	in = s.injector(r, injectable)
	p = replay.NewPlayer(tr, in.target, emu.Hooks{Post: in.post},
		func(countDone uint64) { in.counter = countDone },
		func() bool { return in.fired }, pool)
	return p, s.exec, in
}

// checkRunner wraps the Runner of every injection run. It passes the
// Player through; the package's tests wrap it to hold host code to the
// Runner's host-write rule wherever a campaign runs.
var checkRunner = func(rt replay.Runner) replay.Runner { return rt }

// grade classifies one injection run's output against the golden one.
func (s *subject[G]) grade(golden, out G, err error) (o faults.Outcome, critical bool) {
	switch {
	case err != nil:
		return faults.DUE, false
	case !s.equal(golden, out):
		return faults.SDC, s.critical != nil && s.critical(golden, out)
	default:
		return faults.Masked, false
	}
}

// summary is what run hands the adapters to shape into their result.
type summary[G any] struct {
	prep *prepared[G]
	Counters
	tally    faults.Tally
	critical int
	records  []InjectionRecord
}

// run executes the campaign. Per-injection RNG streams are derived from
// the seed and the injection index, so re-running the same campaign —
// whole or after an interruption — reproduces every injection
// bit-identically.
func (s *subject[G]) run(ctx context.Context) (*summary[G], error) {
	if s.injections < 0 {
		return nil, fmt.Errorf("swfi: negative injection count %d", s.injections)
	}
	// Fast-forward preparation: the golden prefix of every injection run
	// is bit-identical to the golden run, so it is recorded once into
	// checkpoints and write-sets and restored instead of re-simulated.
	prep := s.shared
	if prep == nil {
		var err error
		if prep, err = s.prepare(); err != nil {
			return nil, err
		}
	}
	tr := prep.trace
	injectable := prep.profile.InjectableTotal()
	if injectable == 0 {
		return nil, fmt.Errorf("swfi: %s executes no injectable instructions", s.name)
	}

	// inject draws one injection, simulates it under a fast-forwarding
	// player from the trace and accounts it.
	inject := func(c *Counters, pool *replay.Pool, r *stats.RNG) injection {
		p, exec, in := s.draw(tr, injectable, pool, r)
		if p == nil {
			return injection{} // Masked: nothing injected
		}
		out, err := exec(checkRunner(p))
		o, crit := s.grade(prep.golden, out, err)
		c.SimInstrs += p.Live.DynThreadInstrs
		c.SkippedInstrs += p.Skipped
		res := injection{outcome: o, critical: crit}
		if in != nil {
			res.rec = InjectionRecord{Op: in.op, RelErr: in.relErr, OldBits: in.oldBits, NewBits: in.newBits, Outcome: o}
		}
		return res
	}

	// site re-draws what inject targets from injection i's stream.
	site := func(i int) string {
		if s.tile != nil {
			last, _, _ := s.tile(s.rng(i))
			return fmt.Sprintf("swfi: %s injection %d (tile after launch %d)", s.name, i, last)
		}
		return fmt.Sprintf("swfi: %s injection %d (target %d)", s.name, i, s.rng(i).Uint64()%injectable)
	}

	workers := campaign.Workers(s.workers)
	counters := make([]Counters, workers)
	outs, _, err := campaign.Run(ctx, s.injections, workers, s.progress, func(w int) func(int) injection {
		c := &counters[w]
		// A worker runs its injections one after another, so one reusable
		// arena serves them all.
		pool := &replay.Pool{}
		return func(i int) injection { return inject(c, pool, s.rng(i)) }
	})
	if err != nil {
		return nil, campaign.NameJob(err, site)
	}
	res := &summary[G]{prep: prep, Counters: Counters{Injections: s.injections}}
	for _, c := range counters {
		res.Merge(c)
	}
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
	}
	return res, nil
}
