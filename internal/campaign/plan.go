package campaign

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// RunOrdered executes the items 0..n-1 of a plan of independent, pre-seeded
// campaigns, up to min(inFlight, n) at once and each on workers/inFlight
// engine workers, and commits the outputs strictly in item order on the
// calling goroutine while later items still run: a commit (power-law fits,
// a journal write) never holds the engines up. An item's output must not
// depend on its engine worker count (Run hands outputs back in job order).
//
// Runners claim items in order, so every item before a failed one runs to
// its own end: the error returned is the one an item-at-a-time walk of the
// plan would hit first, and committed is that item's index. A failed exec or
// commit, or a cancelled ctx, ends claiming (an item not started by then
// fails with ctx.Err()); items in flight finish and are dropped, and
// RunOrdered returns once every runner has. A panic in exec or commit is
// that item's error.
func RunOrdered[T any](ctx context.Context, n, workers, inFlight int,
	exec func(i, workers int) (T, error), commit func(i int, out T) error) (committed int, err error) {

	inFlight = max(min(inFlight, n), 1)
	slots := make([]struct {
		out   T
		err   error
		ready chan struct{} // closed once out and err are set
	}, n)
	for k := range slots {
		slots[k].ready = make(chan struct{})
	}
	var (
		next atomic.Int64 // index of the next unclaimed item
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for range inFlight {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				slot := &slots[k]
				if slot.err = ctx.Err(); slot.err == nil {
					slot.err = Safely(func() (err error) {
						slot.out, err = exec(k, max(workers/inFlight, 1))
						return err
					})
				}
				if slot.err != nil {
					stop.Store(true)
				}
				close(slot.ready)
			}
		}()
	}
	defer wg.Wait()
	defer stop.Store(true)

	for k := range slots {
		slot := &slots[k]
		<-slot.ready
		if slot.err != nil {
			return k, slot.err
		}
		if err := Safely(func() error { return commit(k, slot.out) }); err != nil {
			return k, err
		}
		var zero T
		slot.out = zero // the commit owns it now; a long plan does not pin every output
	}
	return n, nil
}

// Safely calls f and returns its error; a panic in f becomes an error with
// the stack, so a campaign's bug fails that campaign and not the process.
func Safely(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return f()
}

// Meter folds the progress of a plan's parts — campaigns that each report a
// cumulative (done, total) from several goroutines, out of order and more
// than once — into one count that only grows: the sum of the parts' running
// maxima. The zero value counts without reporting.
type Meter struct {
	Total int // of the plan, in faults

	// Report, when non-nil, receives each new count below Total from
	// whichever goroutine fed it: every call carries a distinct count, but
	// calls may overtake each other. The count reaching Total is Finish's.
	Report func(done, total int)

	done atomic.Int64
}

// Part returns the progress callback of one more part of the plan.
func (m *Meter) Part() func(done, total int) {
	var seen atomic.Int64
	return func(done, _ int) {
		for {
			old := seen.Load()
			if int64(done) <= old {
				return
			}
			if seen.CompareAndSwap(old, int64(done)) {
				d := int(m.done.Add(int64(done) - old))
				if m.Report != nil && d < m.Total {
					m.Report(d, m.Total)
				}
				return
			}
		}
	}
}

// Done returns the count so far.
func (m *Meter) Done() int { return int(m.done.Load()) }

// Finish reports (Total, Total): the plan's owner calls it once, after the
// last commit, so it is the last report and the only one at Total.
func (m *Meter) Finish() {
	if m.Report != nil {
		m.Report(m.Total, m.Total)
	}
}
