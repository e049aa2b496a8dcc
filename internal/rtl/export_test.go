package rtl

import "slices"

// Pages lists the warps whose register pages m holds.
func (m *Machine) Pages() []int {
	var ws []int
	for w, r := range m.regs {
		if r != nil {
			ws = append(ws, w)
		}
	}
	return ws
}

// Machines returns the engine's golden machine and its idle lane machines.
func (e *VecEngine) Machines() []*Machine {
	ms := []*Machine{e.golden}
	for _, p := range e.pool {
		ms = append(ms, p.m)
	}
	return ms
}

// Sharing reports, for s's six module images, its global image and its
// shared image in that order, whether the image holds prev's values
// (equal) and whether it is prev's slice (same). An empty image counts
// as same: there is nothing to copy.
func (s *Snapshot) Sharing(prev *Snapshot) (equal, same [8]bool) {
	for i := range s.mods {
		equal[i], same[i] = slices.Equal(s.mods[i], prev.mods[i]), sameSlice(s.mods[i], prev.mods[i])
	}
	equal[6], same[6] = slices.Equal(s.global, prev.global), sameSlice(s.global, prev.global)
	equal[7], same[7] = slices.Equal(s.shared, prev.shared), sameSlice(s.shared, prev.shared)
	return equal, same
}

func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
