package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random generator
// (xorshift128+) used everywhere the reproduction needs randomness:
// workload key choice, aging file sizes, crash-state sampling. Seeding is
// explicit so every experiment is reproducible run-to-run.
type Rand struct {
	s0, s1 uint64
}

// NewRand returns a generator seeded from seed via splitmix64 so that
// small, similar seeds still produce well-separated streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.s0
	y := r.s1
	r.s0 = y
	x ^= x << 23
	r.s1 = x ^ y ^ (x >> 17) ^ (y >> 26)
	return r.s1 + y
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform random int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Zipf draws from a Zipfian distribution over [0, n) with skew theta,
// using the rejection-inversion-free "quick zipf" approximation common in
// YCSB-style generators.
type Zipf struct {
	n     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	r     *Rand
}

// NewZipf builds a Zipfian generator over [0, n). theta must be in (0, 1);
// YCSB's default is 0.99.
func NewZipf(r *Rand, n int64, theta float64) *Zipf {
	z := &Zipf{n: n, theta: theta, r: r}
	z.zeta2 = zetaStatic(2, theta)
	z.zetan = zetaStatic(n, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() int64 {
	u := z.r.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	if v < 0 {
		v = 0
	}
	return v
}

func zetaStatic(n int64, theta float64) float64 {
	// Sum the head exactly and approximate the tail with the integral of
	// x^-theta, keeping construction cheap for huge keyspaces.
	const exact = 10000
	sum := 0.0
	m := n
	if m > exact {
		m = exact
	}
	for i := int64(1); i <= m; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > exact {
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(exact), 1-theta)) / (1 - theta)
	}
	return sum
}
