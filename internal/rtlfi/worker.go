package rtlfi

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"gpufi/internal/campaign"
	"gpufi/internal/faults"
	"gpufi/internal/kasm"
	"gpufi/internal/rtl"
	"gpufi/internal/stats"
)

// This file is the campaign engine shared by the micro-benchmark and
// t-MxM families: prepare the input draws, schedule the deterministic
// fault list, and run it on the campaign kernel with the accelerator
// layers — dead-site pruning, bit-parallel marching, checkpoint
// fast-forward — as optional stages of the per-fault loop. The families
// differ only in how they draw inputs and classify a finished faulty run.

// inputDraw describes one prepared input draw.
type inputDraw struct {
	global       []uint32
	golden       []uint32
	goldenCycles uint64
	ckpts        ckptStore
	live         *rtl.Liveness // golden-run liveness trace; nil without pruning
}

// prepare runs one draw's golden prefix on a fresh machine: the golden
// run itself (tracing liveness when the engine prunes) and the
// checkpoint-recording replay (when it fast-forwards). d.global must
// already be populated; everything else is derived here.
func (p *plan) prepare(d *inputDraw) error {
	m := rtl.New()
	if p.prune {
		d.live = rtl.NewLiveness(p.module) // the one module the campaign's faults land in
		m.TraceLiveness(d.live)
	}
	golden := append([]uint32(nil), d.global...)
	if err := m.Run(p.prog, 1, p.block, golden, p.sharedWords, p.goldenBudget); err != nil {
		return fmt.Errorf("rtlfi: golden run failed: %w", err)
	}
	// Detach before the checkpoint replay: a Liveness traces exactly one
	// run, and the replay is the same dataflow anyway.
	m.TraceLiveness(nil)
	d.golden = golden
	d.goldenCycles = m.Cycles()
	if p.fastForward {
		cs, err := recordCheckpoints(m, p.prog, p.block, d.global, p.sharedWords, d.goldenCycles)
		if err != nil {
			return err
		}
		d.ckpts = cs
	}
	return nil
}

// budget is the hang-detection cycle budget of the draw's faulty runs.
func (d *inputDraw) budget() uint64 { return d.goldenCycles*watchdogFactor + 1000 }

// prunedDead pre-classifies one fault against a draw's liveness trace.
// A dead fault is Masked with zero simulation; its whole would-be replay
// (exactly goldenCycles — a dead fault's run is the golden run) lands in
// SkippedCycles so cycle accounting stays comparable across modes.
func (d *inputDraw) prunedDead(f rtl.Fault) bool {
	return d.live != nil && d.live.DeadAt(f.Module, f.Bit, f.Cycle)
}

// faultJob is one campaign work item: a single transient fault paired
// with the input draw it is injected under.
type faultJob struct {
	fault rtl.Fault
	draw  int
}

// drawJobs generates the campaign's deterministic fault list from the
// spec RNG: job i targets draw i%valuesPerRange and a uniform (bit,
// cycle) site. It consumes exactly two rng draws per fault, in job
// order, so the stream — and with it every campaign result — does not
// depend on the engine mode.
func drawJobs(rng *stats.RNG, mod faults.Module, n int, draws []*inputDraw) []faultJob {
	jobs := make([]faultJob, n)
	modBits := rtl.ModuleBits(mod)
	for i := range jobs {
		d := i % valuesPerRange
		jobs[i] = faultJob{
			draw: d,
			fault: rtl.Fault{
				Module: mod,
				Bit:    rng.Intn(modBits),
				Cycle:  uint64(rng.Intn(int(draws[d].goldenCycles))),
			},
		}
	}
	return jobs
}

// simRun is one simulated faulty run's raw outcome before family-specific
// classification: the final global-memory image (the golden image when
// the run provably reconverged), the DUE error if any, and the engine's
// simulated/skipped cycle split.
type simRun struct {
	g            []uint32
	err          error
	sim, skipped uint64
}

// runFault simulates one live fault on the worker's machine: checkpoint
// fast-forward when a snapshot at or before the injection cycle exists,
// golden-reconvergence pruning for the tail, full replay otherwise.
func (p *plan) runFault(machine *rtl.Machine, d *inputDraw, f rtl.Fault) simRun {
	machine.Inject(f)
	if snap := d.ckpts.before(f.Cycle); snap != nil {
		pruned, err := machine.RunFromPruned(snap, d.budget(), d.ckpts.every, d.ckpts.at)
		jumped := machine.SkippedCycles()
		sim := machine.Cycles() - snap.Cycle() - jumped
		if pruned {
			// Reconverged with the golden state: the tail provably
			// replays the golden run, so the golden image is the run's
			// (bit-exact) result.
			return simRun{g: d.golden, sim: sim, skipped: snap.Cycle() + d.goldenCycles - machine.Cycles()}
		}
		return simRun{g: machine.Global(), err: err, sim: sim, skipped: snap.Cycle() + jumped}
	}
	g := append([]uint32(nil), d.global...)
	err := machine.Run(p.prog, 1, p.block, g, p.sharedWords, d.budget())
	jumped := machine.SkippedCycles()
	return simRun{g: g, err: err, sim: machine.Cycles() - jumped, skipped: jumped}
}

// engine is the family-independent part of a campaign spec.
type engine struct {
	module    faults.Module
	numFaults int
	seed      uint64
	workers   int
	progress  func(done, total int)

	fastForward, prune, march bool
}

func newEngine(mod faults.Module, numFaults int, seed uint64, workers int, progress func(done, total int),
	noFastForward, noPrune, noBitParallel bool) engine {
	return engine{
		module: mod, numFaults: numFaults, seed: seed, workers: workers, progress: progress,
		fastForward: !noFastForward, prune: !noPrune, march: !noBitParallel,
	}
}

// family is what distinguishes the micro-benchmark campaigns from the
// t-MxM ones before classification: the program, its launch shape, and
// how one input draw's global-memory image comes off the spec RNG.
type family struct {
	prog         *kasm.Program
	block        int
	sharedWords  int
	goldenBudget uint64
	input        func(rng *stats.RNG) []uint32
}

// plan is a prepared and scheduled campaign: the input draws with their
// golden runs, and the deterministic fault list.
type plan struct {
	engine
	family
	draws []*inputDraw
	jobs  []faultJob
}

// newPlan prepares and schedules a campaign. Input draws consume the
// spec RNG serially; the golden runs (with liveness tracing), plus the
// bit-identical replays that record the fast-forward checkpoints, then
// fan out across draws, one fresh machine each. Neither pass touches the
// RNG, so the fault list drawn afterwards sees the same stream whatever
// the engine mode.
func newPlan(e engine, f family) (*plan, error) {
	if e.numFaults < 0 {
		return nil, fmt.Errorf("rtlfi: negative fault count %d", e.numFaults)
	}
	rng := stats.NewRNG(e.seed)
	p := &plan{engine: e, family: f, draws: make([]*inputDraw, valuesPerRange)}
	for i := range p.draws {
		p.draws[i] = &inputDraw{global: f.input(rng)}
	}
	errs := make([]error, len(p.draws))
	var wg sync.WaitGroup
	for i, d := range p.draws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = p.prepare(d)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	p.jobs = drawJobs(rng, e.module, e.numFaults, p.draws)
	return p, nil
}

// marchStripe is one worker's bit-parallel first phase: it groups the
// stripe's live faults by input draw, simulates each group in lane chunks
// on a march engine (rtl.VecEngine), and returns the per-job outcomes for
// the scalar-ordered recording phase. Engine accounting for the marched
// faults happens here, where the outcomes are produced. A march that
// fails (it cannot, absent engine bugs: prepared draws guarantee the
// golden run completes past every injection cycle) falls back to scalar
// simulation of its chunk, which is bit-identical by the engine's
// contract.
func (p *plan) marchStripe(ctx context.Context, w, workers int, ec *Counters, machine *rtl.Machine, dead []bool) map[int]simRun {
	jobs, draws := p.jobs, p.draws
	perDraw := make([][]int, len(draws))
	for i := w; i < len(jobs); i += workers {
		j := jobs[i]
		if draws[j.draw].prunedDead(j.fault) {
			// Memoised for the recording phase: the dead-site liveness
			// query is a measurable per-fault cost on dense campaigns, and
			// each worker owns its stripe's slots, so the shared slice
			// needs no synchronisation.
			dead[i] = true
			continue
		}
		perDraw[j.draw] = append(perDraw[j.draw], i)
	}
	// A march pays a fixed per-chunk cost — the instrumented golden
	// replay over the chunk's whole cycle span, with every state read
	// probing the divergence planes — that only a near-full lane group
	// amortises: measured on the benchmarked specs, chunks of ~20–25
	// lanes still lose ~2x wall-clock to scalar replay while full chunks
	// win. Under-full chunks (only a draw's last chunk can be one) are
	// therefore left out of the march and fall through to the scalar
	// recording phase, which is bit-identical by the engine's contract.
	const minMarchLanes = 48
	outs := make(map[int]simRun)
	eng := rtl.NewVecEngine()
	defer eng.Close()
	chunk := make([]rtl.Fault, 0, rtl.VecMaxLanes)
	for di, idxs := range perDraw {
		d := draws[di]
		// One read schedule per draw: the draw's first march records the
		// golden run's read/touch schedule, the rest consult it to judge
		// park attempts and retire quiescent lanes (see rtl.MarchSched).
		// Chunks are ordered by ascending fault cycle so that the
		// recording march — which starts at the earliest checkpoint any
		// chunk needs — observes every cycle later chunks will query.
		sort.SliceStable(idxs, func(a, b int) bool {
			return jobs[idxs[a]].fault.Cycle < jobs[idxs[b]].fault.Cycle
		})
		opts := rtl.MarchOpts{
			Sched:        rtl.NewMarchSched(),
			GoldenCycles: d.goldenCycles,
			FinalGlobal:  d.golden,
		}
		for off := 0; off < len(idxs); off += rtl.VecMaxLanes {
			if ctx.Err() != nil {
				return outs
			}
			group := idxs[off:min(off+rtl.VecMaxLanes, len(idxs))]
			if len(group) < minMarchLanes {
				continue // scalar recording phase picks these up
			}
			chunk = chunk[:0]
			for _, gi := range group {
				chunk = append(chunk, jobs[gi].fault)
			}
			// Each march fast-forwards its golden replay to the latest
			// checkpoint at or before its earliest injection.
			opts.Start = d.ckpts.before(chunk[0].Cycle)
			vouts, err := eng.March(p.prog, p.block, d.global, p.sharedWords, chunk, d.budget(), &opts)
			if err == nil {
				ec.Marches++
			}
			for k, gi := range group {
				var sr simRun
				if err != nil {
					sr = p.runFault(machine, d, jobs[gi].fault)
				} else {
					o := vouts[k]
					sr = simRun{err: o.Err, sim: o.Sim, skipped: o.End - o.Sim}
					if o.Err == nil {
						if o.GoldenGlobal {
							sr.g = d.golden
						} else {
							sr.g = o.Global
						}
					}
					ec.VectorFaults++
				}
				ec.SimCycles += sr.sim
				ec.SkippedCycles += sr.skipped
				outs[gi] = sr
			}
		}
	}
	return outs
}

// run drives the campaign kernel over the plan's fault list. Each job
// passes through the engine's optional stages in order — dead-site prune
// check, bit-parallel march result, checkpoint fast-forward — and only
// then costs a scalar simulation; classify turns the finished run into
// the family's per-fault output. The outputs come back in job order
// beside the merged engine accounting. A dead-pruned
// fault is never classified: its slot keeps T's zero value, which both
// families read as Masked with nothing corrupted — exactly what classify
// would report for the bit-identical faulty run.
//
// With marching on, each worker first marches its stripe's live faults
// bit-parallel (marchStripe) and then resolves every job in the exact
// order and with the exact outcomes of the scalar loop, so results stay
// bit-identical across the mode lattice.
func run[T any](ctx context.Context, p *plan,
	classify func(machine *rtl.Machine, j faultJob, g []uint32, err error) T) ([]T, Counters, error) {

	workers := campaign.Workers(p.workers)
	counters := make([]Counters, workers)
	// In march mode the march phase answers every job's dead-site query
	// while grouping its stripe; the recording phase reuses the verdicts
	// instead of re-running the liveness lookups.
	var dead []bool
	if p.march {
		dead = make([]bool, len(p.jobs))
	}
	outs, _, err := campaign.Run(ctx, len(p.jobs), workers, p.progress, func(w int) func(int) T {
		ec := &counters[w]
		machine := rtl.New()
		var marched map[int]simRun
		if p.march {
			marched = p.marchStripe(ctx, w, workers, ec, machine, dead)
		}
		return func(i int) (out T) {
			j := p.jobs[i]
			d := p.draws[j.draw]
			if p.march && dead[i] || !p.march && d.prunedDead(j.fault) {
				// Provably dead site: Masked with zero simulation. Its
				// whole would-be replay (exactly goldenCycles — a dead
				// fault's run is the golden run) lands in SkippedCycles
				// so cycle accounting stays comparable across modes.
				ec.PrunedFaults++
				ec.SkippedCycles += d.goldenCycles
				return out
			}
			sr, ok := marched[i]
			if !ok {
				sr = p.runFault(machine, d, j.fault)
				ec.SimCycles += sr.sim
				ec.SkippedCycles += sr.skipped
			}
			return classify(machine, j, sr.g, sr.err)
		}
	})
	if err != nil {
		return nil, Counters{}, campaign.NameJob(err, func(i int) string {
			j := p.jobs[i]
			return fmt.Sprintf("rtlfi: fault %d (%v bit %d, cycle %d, input draw %d)", i, j.fault.Module, j.fault.Bit, j.fault.Cycle, j.draw)
		})
	}
	total := Counters{Injections: len(p.jobs)}
	for _, c := range counters {
		total.Merge(c)
	}
	return outs, total, nil
}
