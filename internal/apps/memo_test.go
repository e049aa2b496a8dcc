package apps

import (
	"slices"
	"sync"
	"testing"

	"gpufi/internal/emu"
	"gpufi/internal/kasm"
	"gpufi/internal/replay"
)

// progLog is a plain Runner that notes the program of every launch.
type progLog struct {
	replay.Plain
	progs []*kasm.Program
}

func (p *progLog) Launch(l *emu.Launch) error {
	p.progs = append(p.progs, l.Prog)
	return p.Plain.Launch(l)
}

// TestPerLaunchKernelsBuiltOnce: LUD and Quicksort assemble a kernel per
// launch; every execution after the first — concurrent ones included, as
// campaign workers share the Workload — must launch the very programs the
// first one built, ordinal for ordinal, and compute the same output.
func TestPerLaunchKernelsBuiltOnce(t *testing.T) {
	for _, w := range []*Workload{NewLUD(16), NewQuicksort(128)} {
		first := &progLog{}
		want, err := w.ExecuteWith(first)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if distinct := len(slices.Compact(slices.Clone(first.progs))); distinct < 4 {
			t.Fatalf("%s: %d launches of %d distinct kernels in a row, want a per-launch schedule",
				w.Name, len(first.progs), distinct)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				again := &progLog{}
				out, err := w.ExecuteWith(again)
				if err != nil {
					t.Errorf("%s: %v", w.Name, err)
					return
				}
				if !slices.Equal(out, want) {
					t.Errorf("%s: a later execution computed a different output", w.Name)
				}
				if !slices.Equal(again.progs, first.progs) {
					t.Errorf("%s: a later execution launched programs the first did not build", w.Name)
				}
			}()
		}
		wg.Wait()
	}
}

// TestKernelMemoIsBounded: past kernelMemoMax keys the memo stops growing
// and hands out what build returns.
func TestKernelMemoIsBounded(t *testing.T) {
	var m kernelMemo
	builds := 0
	build := func() *kasm.Program { builds++; return &kasm.Program{} }
	for round := 0; round < 2; round++ {
		for k := 0; k < kernelMemoMax+10; k++ {
			if m.get([4]int{1: k}, build) == nil {
				t.Fatal("memo returned no program")
			}
		}
	}
	if n := m.n; n != kernelMemoMax {
		t.Errorf("memo holds %d programs, want the bound %d", n, kernelMemoMax)
	}
	if want := kernelMemoMax + 2*10; builds != want {
		t.Errorf("%d builds, want %d: one per memoised key, one per launch past the bound", builds, want)
	}
}

// TestKernelMemoHitAllocatesNothing: every launch of LUD and Quicksort
// looks its kernel up, so a hit must not allocate.
func TestKernelMemoHitAllocatesNothing(t *testing.T) {
	var m kernelMemo
	build := func() *kasm.Program { return &kasm.Program{} }
	key := [4]int{2, 128, 64, 0x3f800000}
	want := m.get(key, build)
	if n := testing.AllocsPerRun(100, func() {
		if m.get(key, build) != want {
			t.Fatal("memo hit returned another program")
		}
	}); n != 0 {
		t.Errorf("memo hit allocates %v times, want 0", n)
	}
}
