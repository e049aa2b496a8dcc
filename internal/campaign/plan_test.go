package campaign

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// square is a plan item that returns its index squared; noCommit accepts
// every output.
func square(i, _ int) (int, error) { return i * i, nil }
func noCommit(int, int) error      { return nil }

// TestRunOrderedSplitsTheBudget pins the division of the CPU budget: as
// many items in flight as the cap and the plan allow, the rest of the
// budget inside each item's engine.
func TestRunOrderedSplitsTheBudget(t *testing.T) {
	for _, c := range []struct{ items, workers, cap, inFlight, perItem int }{
		{1, 4, 4, 1, 4}, {2, 5, 5, 2, 2}, {3, 7, 7, 3, 2}, {4, 4, 4, 4, 1}, {18, 3, 3, 3, 1}, {18, 1, 1, 1, 1},
		{5, 4, 1, 1, 4}, {5, 4, 0, 1, 4}, // a cap of one: the whole budget inside one item at a time
	} {
		var running, peak atomic.Int64
		gate := make(chan struct{})
		var open sync.Once
		var got []int
		n, err := RunOrdered(context.Background(), c.items, c.workers, c.cap,
			func(i, workers int) (int, error) {
				if workers != c.perItem {
					t.Errorf("%+v: item %d got %d engine workers", c, i, workers)
				}
				now := running.Add(1)
				for {
					p := peak.Load()
					if now <= p || peak.CompareAndSwap(p, now) {
						break
					}
				}
				// Hold the first wave until it is complete, so the peak is
				// the scheduler's width and not a matter of timing.
				if int(now) == c.inFlight {
					open.Do(func() { close(gate) })
				}
				select {
				case <-gate:
				case <-time.After(5 * time.Second): // a narrower scheduler fails the peak check below
				}
				running.Add(-1)
				return i * i, nil
			},
			func(i, out int) error {
				if out != i*i {
					t.Errorf("%+v: commit %d got output %d", c, i, out)
				}
				got = append(got, i)
				return nil
			})
		if err != nil || n != c.items {
			t.Fatalf("%+v: RunOrdered = %d, %v", c, n, err)
		}
		if int(peak.Load()) != c.inFlight {
			t.Errorf("%+v: %d items in flight at once", c, peak.Load())
		}
		if len(got) != c.items || !slices.IsSorted(got) {
			t.Errorf("%+v: committed %v", c, got)
		}
	}
	if n, err := RunOrdered(context.Background(), 0, 4, 4, square, noCommit); n != 0 || err != nil {
		t.Errorf("empty plan: %d, %v", n, err)
	}
}

// TestRunOrderedFirstErrorInPlanOrderWins fails item 4 first and item 2
// only after that: the plan must report item 2, as an item-at-a-time run
// would, commit exactly the items before it, and start nothing it had not
// already claimed.
func TestRunOrderedFirstErrorInPlanOrderWins(t *testing.T) {
	const items = 18
	errEarly, errLate := errors.New("item 2 failed"), errors.New("item 4 failed")
	lateFailed := make(chan struct{})
	var started atomic.Int64
	var committed []int
	n, err := RunOrdered(context.Background(), items, 3, 3,
		func(i, _ int) (int, error) {
			started.Add(1)
			switch i {
			case 2:
				<-lateFailed
				return 0, errEarly
			case 4:
				close(lateFailed)
				return 0, errLate
			}
			return i, nil
		},
		func(i, _ int) error { committed = append(committed, i); return nil })
	if n != 2 || err != errEarly {
		t.Fatalf("RunOrdered = %d, %v; want item 2's error", n, err)
	}
	if !slices.Equal(committed, []int{0, 1}) {
		t.Errorf("committed %v, want items 0 and 1", committed)
	}
	// Items 0–4 had to start. A claim or two can slip in between item 4
	// returning and its runner flagging the failure; the rest of the plan
	// cannot.
	if s := int(started.Load()); s < 5 || s >= items {
		t.Errorf("%d of %d items started, want at least 5 and not the whole plan", s, items)
	}
}

// goroutine returns the running goroutine's number, from its stack header
// ("goroutine 17 [running]:").
func goroutine() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestRunOrderedCommitsOnTheCallerInOrderWhileLaterItemsRun: item 0's
// commit happens while item 1 is still executing (item 1 waits for it), on
// the goroutine that called RunOrdered, and commits never overlap.
func TestRunOrderedCommitsOnTheCallerInOrderWhileLaterItemsRun(t *testing.T) {
	firstCommitted := make(chan struct{})
	var inCommit atomic.Int64
	var order []int
	caller := goroutine()
	n, err := RunOrdered(context.Background(), 6, 2, 2,
		func(i, _ int) (int, error) {
			if i == 1 {
				select {
				case <-firstCommitted:
				case <-time.After(5 * time.Second):
					return 0, errors.New("item 0 was not committed while item 1 ran")
				}
			}
			return i, nil
		},
		func(i, _ int) error {
			if inCommit.Add(1) != 1 {
				t.Error("two commits at once")
			}
			if g := goroutine(); g != caller {
				t.Errorf("commit %d ran on goroutine %s, the caller is %s", i, g, caller)
			}
			order = append(order, i)
			if i == 0 {
				close(firstCommitted)
			}
			inCommit.Add(-1)
			return nil
		})
	if n != 6 || err != nil {
		t.Fatalf("RunOrdered = %d, %v", n, err)
	}
	if !slices.Equal(order, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("commit order %v", order)
	}
}

// TestRunOrderedCommitErrorStopsClaiming: item 1's commit fails; that is
// the error, nothing later is committed, and the plan is not run out.
func TestRunOrderedCommitErrorStopsClaiming(t *testing.T) {
	const items = 200
	errCommit := errors.New("journal full")
	var started atomic.Int64
	var committed []int
	n, err := RunOrdered(context.Background(), items, 2, 2,
		func(i, _ int) (int, error) {
			started.Add(1)
			time.Sleep(time.Millisecond)
			return i, nil
		},
		func(i, _ int) error {
			if i == 1 {
				return errCommit
			}
			committed = append(committed, i)
			return nil
		})
	if n != 1 || err != errCommit {
		t.Fatalf("RunOrdered = %d, %v; want item 1's commit error", n, err)
	}
	if !slices.Equal(committed, []int{0}) {
		t.Errorf("committed %v, want item 0 only", committed)
	}
	if s := int(started.Load()); s >= items {
		t.Errorf("all %d items started after a commit error", s)
	}
}

// TestRunOrderedCancelMidPlan: a cancel with items in flight drops them,
// starts nothing new and returns ctx.Err() — and RunOrdered has no runner
// left behind when it returns.
func TestRunOrderedCancelMidPlan(t *testing.T) {
	const items = 50
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started, returned atomic.Int64
	var committed []int
	n, err := RunOrdered(ctx, items, 3, 3,
		func(i, _ int) (int, error) {
			defer returned.Add(1)
			if started.Add(1) == 3 { // items 0, 1 and 2 are in flight
				cancel()
			}
			<-ctx.Done()
			return 0, ctx.Err()
		},
		func(i, _ int) error { committed = append(committed, i); return nil })
	if n != 0 || !errors.Is(err, context.Canceled) || len(committed) != 0 {
		t.Fatalf("RunOrdered = %d, %v, committed %v; want 0, context.Canceled, nothing", n, err, committed)
	}
	if s, r := started.Load(), returned.Load(); s != 3 || r != 3 {
		t.Errorf("%d items started and %d returned before RunOrdered did, want 3 and 3", s, r)
	}
	// Cancelled before the first claim: nothing runs at all.
	n, err = RunOrdered(ctx, items, 3, 3, func(i, _ int) (int, error) {
		t.Errorf("item %d ran under a cancelled context", i)
		return 0, nil
	}, noCommit)
	if n != 0 || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled plan: %d, %v", n, err)
	}
}

// TestRunOrderedContainsPanics: a panic in an item's exec or commit is that
// item's error, stack attached, under the first-error-in-order rule.
func TestRunOrderedContainsPanics(t *testing.T) {
	n, err := RunOrdered(context.Background(), 8, 2, 2,
		func(i, _ int) (int, error) {
			if i == 3 {
				panic("bad opcode table")
			}
			return i, nil
		}, noCommit)
	if n != 3 || err == nil || !strings.Contains(err.Error(), "panic: bad opcode table") ||
		!strings.Contains(err.Error(), "plan_test.go") {
		t.Fatalf("exec panic: RunOrdered = %d, %v", n, err)
	}
	n, err = RunOrdered(context.Background(), 8, 2, 2, square, func(i, _ int) error {
		if i == 5 {
			var fits map[int]int
			fits[i] = 1
		}
		return nil
	})
	if n != 5 || err == nil || !strings.Contains(err.Error(), "nil map") {
		t.Fatalf("commit panic: RunOrdered = %d, %v", n, err)
	}
}

// meterLog records a Meter's reports.
type meterLog struct {
	mu    sync.Mutex
	calls [][2]int
}

func (l *meterLog) report(done, total int) {
	l.mu.Lock()
	l.calls = append(l.calls, [2]int{done, total})
	l.mu.Unlock()
}

// TestMeter: out-of-order and repeated reports from one goroutine come out
// as a strictly increasing sequence; concurrent ones as distinct counts
// (strictly increasing once sorted — deliveries may overtake each other);
// Done never steps back; and (total, total) is reported exactly once, by
// Finish, last.
func TestMeter(t *testing.T) {
	var log meterLog
	m := &Meter{Total: 300, Report: log.report}
	a, b := m.Part(), m.Part()
	for _, r := range []struct {
		part func(int, int)
		done int
	}{{a, 50}, {b, 10}, {a, 20}, {a, 50}, {b, 100}, {b, 60}, {a, 200}, {b, 100}, {a, 200}} {
		before := m.Done()
		r.part(r.done, 0)
		if m.Done() < before {
			t.Fatalf("Done stepped back from %d to %d", before, m.Done())
		}
	}
	if want := [][2]int{{50, 300}, {60, 300}, {150, 300}}; !slices.Equal(log.calls, want) {
		t.Fatalf("serial reports %v, want %v (the count reaching the total is Finish's)", log.calls, want)
	}
	if m.Done() != 300 {
		t.Fatalf("Done = %d, want 300", m.Done())
	}
	m.Finish()
	if last := log.calls[len(log.calls)-1]; len(log.calls) != 4 || last != [2]int{300, 300} {
		t.Fatalf("after Finish: %v", log.calls)
	}

	// Eight parts of 1000, each fed by three goroutines reporting the same
	// cumulative counts in different orders.
	const parts, per = 8, 1000
	log = meterLog{}
	m = &Meter{Total: parts * per, Report: log.report}
	var wg sync.WaitGroup
	for p := 0; p < parts; p++ {
		part := m.Part()
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i <= per; i++ {
					switch g {
					case 0:
						part(i, per)
					case 1:
						part(per-i, per)
					default:
						part((i*7)%(per+1), per)
					}
				}
			}()
		}
	}
	wg.Wait()
	if m.Done() != parts*per {
		t.Fatalf("Done = %d, want %d", m.Done(), parts*per)
	}
	m.Finish()
	if last := log.calls[len(log.calls)-1]; last != [2]int{parts * per, parts * per} {
		t.Fatalf("last report %v", last)
	}
	counts := make([]int, len(log.calls))
	for i, c := range log.calls {
		counts[i] = c[0]
	}
	slices.Sort(counts)
	for i := 1; i < len(counts); i++ {
		if counts[i] == counts[i-1] {
			t.Fatalf("count %d reported twice", counts[i])
		}
	}
	if counts[0] <= 0 || counts[len(counts)-1] != parts*per {
		t.Fatalf("reports span %d..%d", counts[0], counts[len(counts)-1])
	}
}
