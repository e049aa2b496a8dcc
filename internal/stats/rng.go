// Package stats provides the statistical machinery the paper relies on:
// log-scale histograms of relative errors (Figs. 5, 6, 9), power-law
// fitting and sampling following Clauset, Shalizi & Newman (Eq. 1 of the
// paper), the Shapiro–Wilk normality test used to reject Gaussianity of
// the syndromes (§V-C), and Wilson confidence intervals for injection
// campaigns (§VI). All randomness flows through a deterministic
// splitmix64 generator so campaigns are exactly reproducible.
package stats

// RNG is a deterministic splitmix64 pseudo-random generator. The zero
// value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator with the given seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Split returns a new generator deterministically derived from r, so that
// parallel campaign workers get independent but reproducible streams.
func (r *RNG) Split() *RNG { return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15} }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Range returns a uniform value in [lo, hi).
func (r *RNG) Float64Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns a uniform boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
