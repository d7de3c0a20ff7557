package adversary

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

// FixedDelay delivers every message after exactly the given delay. Delay(d)
// is the adversary's "hold everything as long as allowed" policy; Delay(1)
// is the fastest network.
type FixedDelay sim.Time

var _ DelayPolicy = FixedDelay(1)

// Delay implements DelayPolicy.
func (f FixedDelay) Delay(sim.Time, sim.ProcID, sim.ProcID) sim.Time {
	return sim.Time(f)
}

// UniformDelay draws each message's delay uniformly from [1, d] using a
// pre-committed stream.
//
// Obliviousness caveat: an oblivious adversary must fix delays in advance,
// independent of the protocol's coin flips. Drawing a fresh variate per
// send event means the mapping from "k-th send of the execution" to delay
// is fixed in advance, which is the standard way to realize an oblivious
// random-delay adversary without materializing an infinite table.
type UniformDelay struct {
	d sim.Time
	r *rng.RNG
}

var _ DelayPolicy = (*UniformDelay)(nil)

// NewUniformDelay returns a UniformDelay over [1, d].
func NewUniformDelay(d sim.Time, r *rng.RNG) *UniformDelay {
	if d < 1 {
		d = 1
	}
	return &UniformDelay{d: d, r: r}
}

// Delay implements DelayPolicy.
func (u *UniformDelay) Delay(sim.Time, sim.ProcID, sim.ProcID) sim.Time {
	return 1 + sim.Time(u.r.Intn(int(u.d)))
}

// PairwiseDelay fixes a delay per (from, to) pair, drawn once from a
// pre-committed stream. It models persistently slow links: some pairs of
// processes always communicate at close to the d bound, creating the
// "e-mail that took two days" pathology the paper's introduction describes.
type PairwiseDelay struct {
	n      int
	d      sim.Time
	delays []sim.Time
}

var _ DelayPolicy = (*PairwiseDelay)(nil)

// NewPairwiseDelay builds a PairwiseDelay for n processes over [1, d].
func NewPairwiseDelay(n int, d sim.Time, r *rng.RNG) *PairwiseDelay {
	if d < 1 {
		d = 1
	}
	p := &PairwiseDelay{n: n, d: d, delays: make([]sim.Time, n*n)}
	for i := range p.delays {
		p.delays[i] = 1 + sim.Time(r.Intn(int(d)))
	}
	return p
}

// Delay implements DelayPolicy.
func (p *PairwiseDelay) Delay(_ sim.Time, from, to sim.ProcID) sim.Time {
	if int(from) < 0 || int(from) >= p.n || int(to) < 0 || int(to) >= p.n {
		return 1
	}
	return p.delays[int(from)*p.n+int(to)]
}

// PartitionDelay splits [0, n) into two halves; messages crossing the
// split take the full delay d until the heal time, after which every link
// runs at delay 1. Intra-half traffic is always fast. Models a transient
// network partition softened to the model's reliable-but-slow links
// (messages are never lost in the paper's model, only delayed).
type PartitionDelay struct {
	n      int
	d      sim.Time
	healAt sim.Time
}

var _ DelayPolicy = (*PartitionDelay)(nil)

// NewPartitionDelay builds a PartitionDelay healing at healAt.
func NewPartitionDelay(n int, d, healAt sim.Time) *PartitionDelay {
	if d < 1 {
		d = 1
	}
	return &PartitionDelay{n: n, d: d, healAt: healAt}
}

// Delay implements DelayPolicy.
func (p *PartitionDelay) Delay(t sim.Time, from, to sim.ProcID) sim.Time {
	if t >= p.healAt {
		return 1
	}
	half := sim.ProcID(p.n / 2)
	if (from < half) != (to < half) {
		return p.d
	}
	return 1
}
