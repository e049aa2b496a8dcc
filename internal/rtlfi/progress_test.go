package rtlfi

import (
	"context"
	"sync"
	"testing"

	"gpufi/internal/faults"
	"gpufi/internal/isa"
)

// TestProgressThrottled: the campaign progress callback is throttled to
// roughly one call per 1/1000th of the campaign — per-fault delivery
// measurably perturbs dense campaigns when the callback crosses a
// goroutine or process boundary — and the final call always reports
// (total, total) so consumers can detect completion without counting.
func TestProgressThrottled(t *testing.T) {
	const n = 5000
	var (
		mu       sync.Mutex
		calls    int
		sawFinal bool
	)
	res, err := RunMicroCtx(context.Background(), Spec{
		Op: isa.OpFADD, Range: faults.RangeMedium, Module: faults.ModPipe,
		NumFaults: n, Seed: 23,
		Progress: func(done, total int) {
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
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Injections != n {
		t.Fatalf("campaign completed %d faults, want %d", res.Tally.Injections, n)
	}
	mu.Lock()
	defer mu.Unlock()
	if !sawFinal {
		t.Error("final (total, total) progress call never arrived")
	}
	// One call per 1/1000th of the campaign plus the final one; allow a
	// little headroom but fail hard on anything near per-fault delivery.
	if max := n/(n/1000) + 10; calls > max {
		t.Errorf("progress fired %d times for %d faults, want <= %d (throttled)", calls, n, max)
	}
	if calls == 0 {
		t.Error("progress never fired")
	}
}
