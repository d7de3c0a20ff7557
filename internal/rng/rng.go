// Package rng provides a small, fast, deterministic pseudo-random number
// generator (splitmix64) with two properties the simulator depends on:
//
//   - Splittable streams: Fork derives an independent child stream from a
//     parent, so each simulated process gets its own reproducible stream and
//     the oblivious adversary gets one fixed before the execution starts.
//   - Cloneable state: Clone copies the generator, which lets the adaptive
//     lower-bound adversary of Theorem 1 branch a process's future and
//     estimate, by Monte Carlo, the expected number of messages the process
//     would send in isolation.
//
// math/rand is deliberately not used: its global state and non-splittable
// sources make adversary obliviousness and run reproducibility fragile.
package rng

// RNG is a splitmix64 generator. The zero value is a valid generator seeded
// with zero, but New or Fork should normally be used.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed int64) *RNG {
	return &RNG{state: mix(uint64(seed) ^ 0x9e3779b97f4a7c15)}
}

// mix is the splitmix64 finalizer, a strong 64-bit mixing function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// Fork derives an independent child generator identified by id. Forking the
// same parent state with the same id yields the same child; forking with
// different ids yields streams that are independent for simulation purposes.
// Fork does not advance the parent.
func (r *RNG) Fork(id uint64) *RNG {
	return &RNG{state: mix(r.state ^ mix(id^0xd6e8feb86659fd93))}
}

// Clone returns a copy of the generator that will produce the same future
// sequence as r.
func (r *RNG) Clone() *RNG {
	return &RNG{state: r.state}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand semantics; callers in this repository always pass n >= 1.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// 64-bit modulo bias for n << 2^64 is far below simulation noise.
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a uniform non-negative int64.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	return r.PermInto(make([]int, 0, n), n)
}

// PermInto writes a pseudo-random permutation of [0, n) into dst (reusing
// its capacity) and returns it. The draw sequence is identical to Perm's.
func (r *RNG) PermInto(dst []int, n int) []int {
	dst = dst[:0]
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// Sample returns k distinct values drawn uniformly from [0, n) in random
// order. If k >= n it returns a permutation of [0, n).
func (r *RNG) Sample(n, k int) []int {
	if k <= 0 && k < n {
		return nil
	}
	return r.SampleInto(make([]int, 0, min(k, n)), n, k)
}

// SampleInto is Sample writing into dst (reusing its capacity): k distinct
// uniform values from [0, n), a permutation of [0, n) when k >= n. It
// consumes exactly the same draws and returns exactly the same values as
// Sample for any generator state, so the two are interchangeable without
// perturbing a run; the hot simulation paths use SampleInto with a scratch
// buffer to keep per-step target selection allocation-free.
func (r *RNG) SampleInto(dst []int, n, k int) []int {
	if k >= n {
		return r.PermInto(dst, n)
	}
	if k <= 0 {
		return dst[:0]
	}
	// Floyd's algorithm. Membership is tested by scanning the partial
	// output — it holds exactly the chosen values, so the test matches the
	// map-based formulation draw for draw while staying allocation-free
	// (k is small: a fan-out, not n).
	dst = dst[:0]
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if intsContain(dst, t) {
			t = j
		}
		dst = append(dst, t)
	}
	// Shuffle so order is uniform too.
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// intsContain reports whether v occurs in s.
func intsContain(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
