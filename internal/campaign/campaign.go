// Package campaign is the kernel both fault-injection engines run on. A
// campaign is the same loop at either level — select a site, fire the
// fault, run, classify — over a fault list fixed before the first run, so
// the parts that are not about RTL cycles or emulator instructions live
// here once: the striped worker loop with its cancellation and progress
// rules, and the per-job outputs handed back in job order whatever the
// worker count (Run). One level up, a characterisation or a job is a plan
// of such campaigns: the one rule for running a plan — side by side,
// committed in plan order (RunOrdered) — and the fold of the campaigns'
// progress reports into one count (Meter) live here too.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: a positive n is taken as
// is, anything else means one worker per available CPU.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes jobs 0..n-1 on Workers(workers) goroutines. Worker w owns
// the stripe i ≡ w (mod workers) and runs it in ascending order, so which
// worker runs which job — and therefore anything a worker accumulates —
// never depends on goroutine scheduling. worker is called once on each
// worker's goroutine and returns that worker's job function, which keeps
// the worker's private state (a machine, an arena pool, partial counters)
// in its closure.
//
// A job's output lands in slot i of the returned slice: job order,
// identical for every worker count. Workers stop at the next job boundary
// once ctx is cancelled. Cancellation that lands after the last job
// completed does not void the campaign: err is ctx.Err() only when
// completed < n.
//
// progress, when non-nil, is throttled to about one call per 1/1000th of
// the campaign — callbacks may cross goroutine or process boundaries, and
// per-job delivery measurably perturbs dense campaigns — and is always
// called with (n, n) when the last job completes. It is called from the
// worker goroutines, possibly out of order.
//
// A panic in a job (or in worker) stops every worker at its next job
// boundary, and Run returns no outputs and a *JobPanic naming the job.
func Run[T any](ctx context.Context, n, workers int, progress func(done, total int),
	worker func(w int) func(i int) T) (outs []T, completed int, err error) {

	workers = Workers(workers)
	granule := max(n/1000, 1)
	outs = make([]T, n)
	var done atomic.Int64
	var failed atomic.Pointer[JobPanic] // the first panic
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := -1 // the job running; -1 while worker sets up
			defer func() {
				if r := recover(); r != nil {
					failed.CompareAndSwap(nil, &JobPanic{Job: i, Value: r, Stack: debug.Stack()})
				}
			}()
			job := worker(w)
			for i = w; i < n && ctx.Err() == nil && failed.Load() == nil; i += workers {
				outs[i] = job(i)
				d := int(done.Add(1))
				if progress != nil && (d == n || d%granule == 0) {
					progress(d, n)
				}
			}
		}()
	}
	wg.Wait()
	if jp := failed.Load(); jp != nil {
		return nil, int(done.Load()), jp
	}
	if completed = int(done.Load()); completed < n {
		return outs, completed, ctx.Err()
	}
	return outs, completed, nil
}

// JobPanic is the error Run returns when a job panics.
type JobPanic struct {
	Job   int // the job's index; -1 when a worker panicked setting up
	Value any // what the job panicked with
	Stack []byte
}

func (e *JobPanic) Error() string {
	return fmt.Sprintf("job %d panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// NameJob prefixes a *JobPanic in err with site(job) — the engine's name
// for the job's fault, enough to replay it alone. Other errors pass as
// they are.
func NameJob(err error, site func(job int) string) error {
	var jp *JobPanic
	if errors.As(err, &jp) && jp.Job >= 0 {
		return fmt.Errorf("%s: %w", site(jp.Job), err)
	}
	return err
}
