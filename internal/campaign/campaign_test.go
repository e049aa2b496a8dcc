package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// identity is a worker whose every job returns its own index.
func identity(int) func(int) int {
	return func(i int) int { return i }
}

// TestStripesAndJobOrder: worker w runs exactly the jobs i ≡ w (mod
// workers), in ascending order, and the outputs come back in job order
// whatever the worker count.
func TestStripesAndJobOrder(t *testing.T) {
	const n = 101
	var want []int
	for _, workers := range []int{1, 2, 3, 7, 200} {
		ran := make([][]int, workers)
		outs, completed, err := Run(context.Background(), n, workers, nil, func(w int) func(int) int {
			return func(i int) int {
				ran[w] = append(ran[w], i)
				return i * i
			}
		})
		if err != nil || completed != n {
			t.Fatalf("workers=%d: completed %d/%d, err %v", workers, completed, n, err)
		}
		for w, is := range ran {
			for k, i := range is {
				if i != w+k*workers {
					t.Fatalf("workers=%d: worker %d ran job %d at position %d, want %d", workers, w, i, k, w+k*workers)
				}
			}
		}
		if want == nil {
			want = outs
		} else if !reflect.DeepEqual(outs, want) {
			t.Fatalf("workers=%d: outputs differ from workers=1", workers)
		}
	}
	for i, v := range want {
		if v != i*i {
			t.Fatalf("slot %d holds %d, want job %d's output %d", i, v, i, i*i)
		}
	}
}

// TestProgressThrottled: progress is delivered about once per 1/1000th
// of the campaign — per-job delivery measurably perturbs dense campaigns
// when the callback crosses a goroutine or process boundary — and the
// final call always reports (total, total) so consumers can detect
// completion without counting.
func TestProgressThrottled(t *testing.T) {
	const n = 5000
	var (
		mu       sync.Mutex
		calls    int
		sawFinal bool
	)
	_, completed, err := Run(context.Background(), n, 4, func(done, total int) {
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
	}, identity)
	if err != nil {
		t.Fatal(err)
	}
	if completed != n {
		t.Fatalf("campaign completed %d jobs, want %d", completed, n)
	}
	if !sawFinal {
		t.Error("final (total, total) progress call never arrived")
	}
	// granule = total/1000, so at most total/granule + 1 calls; allow a
	// little headroom but fail hard on anything near per-job delivery.
	if max := n/(n/1000) + 10; calls > max {
		t.Errorf("progress fired %d times for %d jobs, want <= %d (throttled)", calls, n, max)
	}
	if calls == 0 {
		t.Error("progress never fired")
	}

	// A campaign smaller than the granule still reports every job.
	calls = 0
	if _, _, err := Run(context.Background(), 7, 2, func(int, int) { mu.Lock(); calls++; mu.Unlock() }, identity); err != nil {
		t.Fatal(err)
	}
	if calls != 7 {
		t.Errorf("small campaign: %d progress calls, want 7", calls)
	}
}

// TestCancelAfterCompletionKeepsResult: cancellation landing between the
// last job and Run's return must not void a campaign in which every job
// completed.
func TestCancelAfterCompletionKeepsResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 60
	_, completed, err := Run(ctx, n, 3, func(done, total int) {
		if done == total {
			cancel()
		}
	}, identity)
	if err != nil {
		t.Fatalf("completed campaign discarded: %v", err)
	}
	if completed != n {
		t.Fatalf("completed = %d, want %d", completed, n)
	}
}

// TestCancelMidCampaignStillErrors: the completion carve-out must not
// swallow genuine mid-campaign cancellation; workers stop at the next job
// boundary.
func TestCancelMidCampaignStillErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 500
	_, completed, err := Run(ctx, n, 2, func(done, total int) {
		if done == 5 {
			cancel()
		}
	}, identity)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned err %v", err)
	}
	// The cancelling worker stops at its next job boundary, so its stripe
	// is left unfinished however far the other one got.
	if completed < 5 || completed >= n {
		t.Fatalf("completed = %d of %d after cancelling at 5", completed, n)
	}
}

// TestJobPanicFailsCampaign: a job that panics stops the campaign with an
// error naming it — index, panic value, stack — and no outputs; a worker
// that panics setting up is job -1; no goroutine outlives Run. NameJob
// prefixes the engine's name for the fault.
func TestJobPanicFailsCampaign(t *testing.T) {
	before := runtime.NumGoroutine()
	const bad = 57
	outs, _, err := Run(context.Background(), 200, 3, nil, func(int) func(int) int {
		return func(i int) int {
			if i == bad {
				panic("corrupted machine state")
			}
			return i
		}
	})
	var jp *JobPanic
	if !errors.As(err, &jp) || jp.Job != bad || jp.Value != "corrupted machine state" ||
		!strings.Contains(string(jp.Stack), "campaign_test.go") || outs != nil {
		t.Fatalf("panicking job %d: outs %v, err %v", bad, outs != nil, err)
	}
	named := NameJob(err, func(i int) string { return fmt.Sprintf("fault %d at bit %d", i, 2*i) })
	if !errors.As(named, &jp) || !strings.HasPrefix(named.Error(), "fault 57 at bit 114: job 57 panicked: corrupted machine state") {
		t.Fatalf("named error: %v", named)
	}

	_, _, err = Run(context.Background(), 10, 2, nil, func(w int) func(int) int {
		if w == 1 {
			panic("no machine")
		}
		return func(i int) int { return i }
	})
	if !errors.As(err, &jp) || jp.Job != -1 || NameJob(err, nil) != err {
		t.Fatalf("panicking worker set-up: %v", err)
	}
	// A worker is counted until it has returned past wg.Done: give the
	// scheduler a moment, never a leak.
	after := runtime.NumGoroutine()
	for wait := 0; after > before && wait < 100; wait++ {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after != before {
		t.Fatalf("%d goroutines before the campaigns, %d after", before, after)
	}
}
