package emu

import (
	"runtime"
	"testing"
	"time"

	"gpufi/internal/kasm"
)

// TestProgramDecodedOnce: a program is decoded on its first use, and every
// later launch, Resume and LaneSafe query reads that one decoded form.
func TestProgramDecodedOnce(t *testing.T) {
	const n = 64
	p := vecAddProg(t, n)
	decodes := 0
	first := p.Decoded(func(p *kasm.Program) any { decodes++; return decodeProgram(p) }).(*dprog)
	var snaps []*Snapshot
	for range 3 {
		g := make([]uint32, 3*n)
		if _, err := RunCheckpointed(&Launch{Prog: p, Grid: 2, Block: n / 2, Global: g}, 1, 16, func(s *Snapshot) {
			snaps = append(snaps, s)
		}); err != nil {
			t.Fatal(err)
		}
		if !LaneSafe(p) {
			t.Fatal("vecadd is not LaneSafe")
		}
	}
	if _, err := Resume(&Launch{Prog: p, Grid: 2, Block: n / 2, Global: make([]uint32, 3*n)}, snaps[0]); err != nil {
		t.Fatal(err)
	}
	if decodes != 1 {
		t.Errorf("program decoded %d times, want once", decodes)
	}
	if decoded(p) != first {
		t.Error("a launch replaced the program's decoded form")
	}
}

// TestLaunchedProgramCollected: the emulator keeps no reference to a
// program it ran, so a launched kernel that nothing else holds is
// collected together with its decoded form.
func TestLaunchedProgramCollected(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p := vecAddProg(t, 64)
		if _, err := Run(&Launch{Prog: p, Grid: 1, Block: 64, Global: make([]uint32, 3*64)}); err != nil {
			t.Fatal(err)
		}
		if !LaneSafe(p) {
			t.Fatal("vecadd is not LaneSafe")
		}
		runtime.SetFinalizer(p, func(*kasm.Program) { close(collected) })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("a launched program that nothing references was not collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
