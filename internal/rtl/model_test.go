package rtl

import (
	"slices"
	"sync"
	"testing"

	"gpufi/internal/isa"
)

// TestMachinesShareModelNotState: every machine stands on the one
// process-wide model — same layout pointers, same field handles — and owns
// nothing but its state words.
func TestMachinesShareModelNotState(t *testing.T) {
	a, b := New(), New()
	as, bs := a.moduleStates(), b.moduleStates()
	for i := range as {
		if as[i].Lay != bs[i].Lay {
			t.Errorf("%s: machines hold different layout instances", as[i].Lay.Name)
		}
		if &as[i].words[0] == &bs[i].words[0] {
			t.Errorf("%s: machines share state words", as[i].Lay.Name)
		}
		as[i].FlipBit(as[i].Lay.Bits - 1)
		if bs[i].PopCount() != 0 {
			t.Errorf("%s: a flip on one machine is visible on the other", as[i].Lay.Name)
		}
	}
	if a.fieldHandles != b.fieldHandles {
		t.Error("machines resolved different field handles")
	}
}

// TestNewAllocatesStateOnly: after the first call builds the model, New
// allocates the machine, six State headers and six word slices — no
// layout, name map or formatted field name.
func TestNewAllocatesStateOnly(t *testing.T) {
	New()
	if n := testing.AllocsPerRun(20, func() { New() }); n > 13 {
		t.Errorf("New() makes %.0f allocations, want at most 13", n)
	}
}

// TestConcurrentNewAndRun constructs and runs machines from several
// goroutines at once; under -race it proves the shared model is only ever
// read.
func TestConcurrentNewAndRun(t *testing.T) {
	prog := vecOpProg(t, isa.OpFFMA)
	init := make([]uint32, 256)
	for i := 0; i < 192; i++ {
		init[i] = f32(float32(i)*0.25 + 1)
	}
	want := append([]uint32(nil), init...)
	if err := New().Run(prog, 1, 64, want, 0, testMaxCycles); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				g := append([]uint32(nil), init...)
				if err := New().Run(prog, 1, 64, g, 0, testMaxCycles); err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(g, want) {
					t.Error("concurrent run diverged from the serial one")
					return
				}
			}
		}()
	}
	wg.Wait()
}
