package adversary

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

// EveryStep schedules every process at every time step (the synchronous
// schedule; δ = 1 is saturated).
type EveryStep struct{}

var _ Schedule = EveryStep{}

// Append implements Schedule.
func (EveryStep) Append(_ sim.Time, v sim.View, buf []sim.ProcID) []sim.ProcID {
	for p := 0; p < v.N(); p++ {
		buf = append(buf, sim.ProcID(p))
	}
	return buf
}

// Stride schedules each process exactly once every δ steps, with per-process
// phases drawn from a pre-committed random stream and re-drawn each period,
// so processes drift relative to one another while the δ bound holds. This
// saturates the paper's relative-speed bound: two processes can be up to
// 2(δ−1) steps apart in their local-step counts at any moment.
type Stride struct {
	n      int
	delta  sim.Time
	r      *rng.RNG
	phases []sim.Time // phase of each process within the current period
	period sim.Time   // index of the period for which phases are valid
}

var _ Schedule = (*Stride)(nil)

// NewStride returns a Stride schedule for n processes with gap bound delta.
// The stream r must be pre-committed (oblivious).
func NewStride(n int, delta sim.Time, r *rng.RNG) *Stride {
	if delta < 1 {
		delta = 1
	}
	s := &Stride{
		n:      n,
		delta:  delta,
		r:      r,
		phases: make([]sim.Time, n),
		period: -1,
	}
	return s
}

// Append implements Schedule.
func (s *Stride) Append(t sim.Time, _ sim.View, buf []sim.ProcID) []sim.ProcID {
	if s.delta == 1 {
		for p := 0; p < s.n; p++ {
			buf = append(buf, sim.ProcID(p))
		}
		return buf
	}
	period := t / s.delta
	if period != s.period {
		// Redraw phases for the new period. A process scheduled at phase
		// δ−1 of one period and phase 0 of the next is still within the δ
		// bound (gap δ ... gap counted as "at least once in any δ steps").
		for p := range s.phases {
			s.phases[p] = sim.Time(s.r.Intn(int(s.delta)))
		}
		s.period = period
	}
	phase := t % s.delta
	for p := 0; p < s.n; p++ {
		if s.phases[p] == phase {
			buf = append(buf, sim.ProcID(p))
		}
	}
	return buf
}

// FixedStride schedules process p at times t with t ≡ p (mod δ): a
// deterministic round-robin partition. Unlike Stride it never redraws
// phases, so it is useful when a test needs a fully predictable schedule.
type FixedStride struct {
	n     int
	delta sim.Time
}

var _ Schedule = FixedStride{}

// NewFixedStride returns the deterministic round-robin schedule.
func NewFixedStride(n int, delta sim.Time) FixedStride {
	if delta < 1 {
		delta = 1
	}
	return FixedStride{n: n, delta: delta}
}

// Append implements Schedule.
func (s FixedStride) Append(t sim.Time, _ sim.View, buf []sim.ProcID) []sim.ProcID {
	phase := t % s.delta
	for p := 0; p < s.n; p++ {
		if sim.Time(p)%s.delta == phase {
			buf = append(buf, sim.ProcID(p))
		}
	}
	return buf
}

// SkewedStride is the maximally skewed oblivious schedule: a seeded subset
// of "slow" processes is scheduled exactly once every δ steps (each at a
// fixed random phase) while every other process runs at full speed. It
// realizes the paper's relative-speed pathology in its pure form — some
// processes persistently δ times slower than the rest — without ever
// violating the δ bound, which makes it a building block for the scenario
// fuzzer's randomized adversary matrix (Stride, by redrawing phases,
// averages the skew away; SkewedStride pins it for the whole run).
type SkewedStride struct {
	n      int
	delta  sim.Time
	phases []sim.Time // phase of each slow process; -1 marks fast processes
}

var _ Schedule = (*SkewedStride)(nil)

// NewSkewedStride returns a schedule for n processes with gap bound delta
// where ~slowFrac of the processes (chosen from the pre-committed stream r)
// step only once per δ-step period. slowFrac is clamped to [0, 1]; with
// delta = 1 or slowFrac = 0 the schedule degenerates to EveryStep.
func NewSkewedStride(n int, delta sim.Time, slowFrac float64, r *rng.RNG) *SkewedStride {
	if delta < 1 {
		delta = 1
	}
	if slowFrac < 0 {
		slowFrac = 0
	}
	if slowFrac > 1 {
		slowFrac = 1
	}
	s := &SkewedStride{n: n, delta: delta, phases: make([]sim.Time, n)}
	for p := range s.phases {
		s.phases[p] = -1
	}
	if delta == 1 {
		return s
	}
	slow := int(slowFrac * float64(n))
	for _, p := range r.Sample(n, slow) {
		s.phases[p] = sim.Time(r.Intn(int(delta)))
	}
	return s
}

// Append implements Schedule.
func (s *SkewedStride) Append(t sim.Time, _ sim.View, buf []sim.ProcID) []sim.ProcID {
	phase := t % s.delta
	for p := 0; p < s.n; p++ {
		if s.phases[p] < 0 || s.phases[p] == phase {
			buf = append(buf, sim.ProcID(p))
		}
	}
	return buf
}
