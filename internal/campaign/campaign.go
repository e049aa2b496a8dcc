// Package campaign is the kernel both fault-injection engines run on. A
// campaign is the same loop at either level — select a site, fire the
// fault, run, classify — over a fault list fixed before the first run, so
// the parts that are not about RTL cycles or emulator instructions live
// here once: the striped worker loop with its cancellation and progress
// rules (Run), the per-job outputs handed back in job order whatever the
// worker count (Run's result), and the cell through which a
// fault-equivalence class shares its one simulated outcome (Memo).
package campaign

import (
	"context"
	"runtime"
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
// A job returns its output and whether it completed; it may report false
// only after ctx was cancelled (Memo.Wait is the one such case). Outputs
// land in slot i of the returned slice: job order, identical for every
// worker count. Workers stop at the next job boundary once ctx is
// cancelled. Cancellation that lands after the last job completed does
// not void the campaign: err is ctx.Err() only when completed < n.
//
// progress, when non-nil, is throttled to about one call per 1/1000th of
// the campaign — callbacks may cross goroutine or process boundaries, and
// per-job delivery measurably perturbs dense campaigns — and is always
// called with (n, n) when the last job completes. It is called from the
// worker goroutines, possibly out of order.
func Run[T any](ctx context.Context, n, workers int, progress func(done, total int),
	worker func(w int) func(i int) (T, bool)) (outs []T, completed int, err error) {

	workers = Workers(workers)
	granule := max(n/1000, 1)
	outs = make([]T, n)
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := worker(w)
			for i := w; i < n && ctx.Err() == nil; i += workers {
				out, ok := job(i)
				if !ok {
					continue
				}
				outs[i] = out
				d := int(done.Add(1))
				if progress != nil && (d == n || d%granule == 0) {
					progress(d, n)
				}
			}
		}()
	}
	wg.Wait()
	if completed = int(done.Load()); completed < n {
		return outs, completed, ctx.Err()
	}
	return outs, completed, nil
}

// Memo is the outcome cell of one multi-member fault-equivalence class.
// Rep, the class's smallest job index, simulates the class once and
// publishes; every other member waits and copies at zero simulation cost.
// Pre-claiming the representative by index, rather than by whichever
// member gets there first, keeps the campaign's split of simulated and
// copied work independent of scheduling.
//
// Waiting cannot deadlock under Run: representatives never wait, and a
// member only waits on a strictly smaller job index, which its owning
// worker reaches — its stripe is ascending — and publishes without
// waiting on anything larger.
type Memo[T any] struct {
	Rep  int
	done chan struct{} // closed by Publish after v is set
	v    T
}

// NewMemo returns the empty cell of a class represented by job rep.
func NewMemo[T any](rep int) *Memo[T] {
	return &Memo[T]{Rep: rep, done: make(chan struct{})}
}

// Publish installs the representative's outcome and releases the waiting
// members. It is called exactly once, by the worker that ran job Rep.
func (m *Memo[T]) Publish(v T) {
	m.v = v
	close(m.done)
}

// Wait blocks until the outcome is published or ctx is cancelled. A
// published outcome beats cancellation — select picks at random among
// ready cases, and a campaign whose last member resolved must count as
// complete. ok false means the member did not complete: its job must
// report that to Run and must not be tallied.
func (m *Memo[T]) Wait(ctx context.Context) (v T, ok bool) {
	select {
	case <-m.done:
		return m.v, true
	default:
	}
	select {
	case <-m.done:
		return m.v, true
	case <-ctx.Done():
		return v, false
	}
}
