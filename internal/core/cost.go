package core

import (
	"fmt"
	"time"

	"gpufi/internal/apps"
	"gpufi/internal/emu"
	"gpufi/internal/kasm"
	"gpufi/internal/mxm"
	"gpufi/internal/rtl"
	"gpufi/internal/swfi"
)

// CostModel quantifies the paper's §VI argument: injecting a statistically
// significant number of faults into a full application at RTL level is
// infeasible (the paper estimates 54 years for its 48,000 injections),
// while the two-level framework needs one bounded RTL characterisation
// plus cheap software injections.
type CostModel struct {
	// RTLCyclesPerSecond is the measured RTL simulation throughput.
	RTLCyclesPerSecond float64
	// RTLMicroCycles is the cycle cost of one micro-benchmark run.
	RTLMicroCycles uint64
	// SWInjectionSeconds is the measured wall time of one software
	// injection run of the reference application.
	SWInjectionSeconds float64
	// AppThreadInstrs is the application's dynamic thread-instruction
	// count, used to extrapolate its hypothetical RTL cost.
	AppThreadInstrs uint64
	// MicroThreadInstrs is the micro-benchmark's dynamic count.
	MicroThreadInstrs uint64
}

// MeasureCost benchmarks the RTL machine and the software injector on the
// reference workload to populate a CostModel. It is the one deliberately
// wall-clock-dependent routine in the library (results feed reports, not
// experiments).
func MeasureCost(w *apps.Workload) (*CostModel, error) {
	prog, err := mxm.Build(mxm.Tile)
	if err != nil {
		return nil, err
	}
	a, b := mxm.TileInputs(mxm.TileRandom, 1)
	m := rtl.New()

	const reps = 20
	start := time.Now()
	var cycles uint64
	for i := 0; i < reps; i++ {
		g := mxm.Pack(a, b, mxm.Tile)
		if err := m.Run(prog, 1, mxm.BlockThreads, g, mxm.SharedWords, 10_000_000); err != nil {
			return nil, err
		}
		cycles += m.Cycles()
	}
	rtlSecs := time.Since(start).Seconds()

	microInstrs, err := microInstrCount(prog)
	if err != nil {
		return nil, err
	}

	// A profile is one hook-free run, so timing it times an injection run.
	start = time.Now()
	appProfile, err := swfi.Profile(w)
	if err != nil {
		return nil, err
	}
	swSecs := time.Since(start).Seconds()

	return &CostModel{
		RTLCyclesPerSecond: float64(cycles) / rtlSecs,
		RTLMicroCycles:     cycles / reps,
		SWInjectionSeconds: swSecs,
		AppThreadInstrs:    appProfile.Total(),
		MicroThreadInstrs:  microInstrs,
	}, nil
}

// microInstrCount returns the dynamic thread-instruction count of one
// fault-free t-MxM tile run.
func microInstrCount(prog *kasm.Program) (uint64, error) {
	a, b := mxm.TileInputs(mxm.TileRandom, 1)
	res, err := emu.Run(&emu.Launch{
		Prog: prog, Grid: 1, Block: mxm.BlockThreads,
		Global: mxm.Pack(a, b, mxm.Tile), SharedWords: mxm.SharedWords,
	})
	return res.DynThreadInstrs, err
}

// RTLAppInjectionSeconds extrapolates the RTL cost of running the full
// application once (one injection needs one full run).
func (c *CostModel) RTLAppInjectionSeconds() float64 {
	if c.MicroThreadInstrs == 0 || c.RTLCyclesPerSecond == 0 {
		return 0
	}
	scale := float64(c.AppThreadInstrs) / float64(c.MicroThreadInstrs)
	return float64(c.RTLMicroCycles) * scale / c.RTLCyclesPerSecond
}

// RTLAppInjectionSecondsWith discounts the extrapolated per-injection RTL
// cost by a measured campaign replay speedup (checkpoint fast-forward
// and dead-site pruning, both folded into Telemetry.ReplaySpeedup): the
// engine only simulates 1/speedup of each faulty run's cycles on average.
func (c *CostModel) RTLAppInjectionSecondsWith(replaySpeedup float64) float64 {
	if replaySpeedup < 1 {
		replaySpeedup = 1
	}
	return c.RTLAppInjectionSeconds() / replaySpeedup
}

// CompareWith renders the §VI comparison for n injections, with the RTL
// side credited a measured campaign replay speedup (which already folds
// in fast-forward and pruning). Costs and the ratio print three
// significant digits: a credited RTL injection can cost milliseconds.
func (c *CostModel) CompareWith(n int, replaySpeedup float64) string {
	rtlTotal := c.RTLAppInjectionSecondsWith(replaySpeedup) * float64(n)
	swTotal := c.SWInjectionSeconds * float64(n)
	return fmt.Sprintf(
		"RTL (%.1fx engine speedup): %.3g s/injection -> %.3g hours for %d injections; software: %.3g s/injection -> %.3g hours; speedup %.3gx",
		replaySpeedup, c.RTLAppInjectionSecondsWith(replaySpeedup), rtlTotal/3600, n,
		c.SWInjectionSeconds, swTotal/3600,
		safeDiv(rtlTotal, swTotal))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
