package core

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/topology"
)

// Params carries the protocol tuning knobs. The zero value plus N (and F)
// is valid: WithDefaults fills every other field with the constants used
// throughout the repository's experiments.
type Params struct {
	// N is the number of processes; F the number of tolerated failures.
	N int
	F int

	// ShutdownC scales the ears shut-down phase length
	// Θ(n/(n−f)·log n) (Figure 2, line 15). The analysis only fixes the
	// asymptotic form; the constant trades message complexity against the
	// probability that some process sleeps before the informed-list has
	// propagated (forcing extra wake-ups, not incorrectness).
	ShutdownC float64

	// Epsilon is the sears fan-out exponent ε ∈ (0, 1) (Theorem 7).
	Epsilon float64

	// FanC scales the sears per-step fan-out Θ(n^ε·log n).
	FanC float64

	// TearsA scales the tears first-hop audience a = TearsA·√n·log₂n
	// (paper: a = 4√n·log n, Figure 3 line 2).
	TearsA float64

	// TearsKappa scales the tears trigger granularity
	// κ = TearsKappa·n^¼·log₂n (paper: κ = 8·n^¼·log n, Figure 3 line 4).
	TearsKappa float64

	// PushPullC scales the push/pull/push-pull proactive-send budget
	// Θ(n/(n−f)·log n) per informed process (Panagiotou–Speidel study
	// Θ(log n) rounds on G(n,p); the n/(n−f) factor compensates for
	// pushes wasted on crashed targets, as in the ears shut-down phase).
	PushPullC float64

	// AvgC scales the sum-weight averaging send budget per process:
	// R = AvgC·(log₂n + log₂(1/ε)) local sends. Picard et al.'s
	// non-asymptotic bounds give ε-consensus after Θ(log n + log(1/ε))
	// rounds on graphs with constant spectral gap; AvgC is the safety
	// factor over that.
	AvgC float64

	// AvgEpsilon is the averaging consensus tolerance ε: the evaluator
	// accepts when every live process's estimate s/w is within ε of the
	// true mean of the initial values.
	AvgEpsilon float64

	// WithVals makes rumors carry one-byte values (used by consensus).
	WithVals bool

	// Graph is the communication topology the protocol samples targets
	// from. Nil preserves the paper's model exactly: targets drawn
	// "uniform on [n]" (self included) as in Figure 2. A non-nil graph
	// restricts every send to the sender's neighborhood; pass the same
	// graph to sim.Config so the world enforces it.
	Graph topology.Graph

	// Pool recycles hot-path snapshot storage (payloads, rumor sets,
	// informed lists). Leave nil: NewNodes creates a fresh pool per run,
	// which is always safe. Setting it explicitly shares the pool across
	// runs — valid only for strictly sequential runs of the same N (the
	// benchmarks do this to measure steady-state allocation); sharing a
	// pool between concurrent runs is a data race. Pooling never changes
	// results: runs are bit-identical with any Pool/NoPool combination.
	Pool *Pool

	// NoPool disables snapshot pooling for this run (NewNodes will not
	// create a pool). Used by the live cluster, whose goroutine-per-process
	// execution cannot share single-threaded free lists, and by tests that
	// pin the legacy allocation behavior.
	NoPool bool

	// Lean selects O(1) per-process time bookkeeping instead of the Θ(n)
	// acquisition-time arrays (see Tracker). Evaluator completion times
	// remain exact for the milestones they read; per-rumor acquisition
	// times degrade to last-acquisition upper bounds. Intended for
	// large-scale sweeps (n in the tens of thousands) where the full
	// tracker's Θ(n²) footprint per run does not fit.
	Lean bool

	// Shards mirrors sim.Config.Shards for pooled runs: when the world
	// executes as sharded supersteps, node Steps of different shards run
	// concurrently, and the snapshot pools' unsynchronized free lists must
	// not be shared across them. NewNodes therefore builds one pool per
	// shard (partitioned exactly as sim.ShardRange) and hands every node
	// the pool of its owning shard. Pool partitioning — like pooling
	// itself — is invisible to results. Ignored when pooling is off.
	Shards int
}

// WithDefaults returns a copy of p with zero fields replaced by defaults.
//
// The tears constants default to 1 and 1 rather than the paper's 4 and 8:
// the paper's constants are chosen to make the concentration bounds of
// Lemmas 8–11 provable for asymptotic n, and at simulable scales
// (n ≤ a few thousand) they degenerate to all-to-all (a ≥ n). The scaled
// constants preserve every structural property (two hops, µ = a/2 trigger
// windows, a = Θ(√n log n), κ = Θ(n^¼ log n)) at sizes where a < n, and
// the conformance tests verify majority coverage still holds w.h.p.
func (p Params) WithDefaults() Params {
	if p.ShutdownC == 0 {
		p.ShutdownC = 6
	}
	if p.Epsilon == 0 {
		p.Epsilon = 0.5
	}
	if p.FanC == 0 {
		p.FanC = 1
	}
	if p.TearsA == 0 {
		p.TearsA = 1
	}
	if p.TearsKappa == 0 {
		p.TearsKappa = 1
	}
	if p.PushPullC == 0 {
		p.PushPullC = 6
	}
	if p.AvgC == 0 {
		p.AvgC = 8
	}
	if p.AvgEpsilon == 0 {
		p.AvgEpsilon = 1e-2
	}
	return p
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.N < 1:
		return fmt.Errorf("core: N = %d, need N >= 1", p.N)
	case p.F < 0 || p.F >= p.N:
		return fmt.Errorf("core: F = %d, need 0 <= F < N = %d", p.F, p.N)
	case p.ShutdownC < 0:
		return fmt.Errorf("core: ShutdownC = %v, must be >= 0", p.ShutdownC)
	case p.Epsilon < 0 || p.Epsilon >= 1:
		return fmt.Errorf("core: Epsilon = %v, need 0 < ε < 1", p.Epsilon)
	case p.FanC < 0 || p.TearsA < 0 || p.TearsKappa < 0 || p.PushPullC < 0 || p.AvgC < 0:
		return fmt.Errorf("core: negative tuning constant")
	case p.AvgEpsilon < 0 || p.AvgEpsilon > 1:
		return fmt.Errorf("core: AvgEpsilon = %v, need 0 < ε <= 1", p.AvgEpsilon)
	case p.Graph != nil && p.Graph.N() != p.N:
		return fmt.Errorf("core: topology has %d vertices for N = %d", p.Graph.N(), p.N)
	}
	return nil
}

// sampler returns the target sampler for process id under p's topology.
func (p Params) sampler(id int) topology.Sampler {
	return topology.NewSampler(id, p.N, p.Graph)
}

// obligationRows returns the informed-list obligation scope for process id:
// nil on the paper's complete graph (Graph == nil), and the neighbor set on
// a real sparse topology, where a process can only cover rows it can
// address (see informedList). The set draws from the pool when one is
// configured and is treated as immutable by its consumers.
func (p Params) obligationRows(id int) *bitset.Set {
	if p.Graph == nil {
		return nil
	}
	var s *bitset.Set
	if p.Pool != nil {
		s = p.Pool.bits.NewSet()
	} else {
		s = bitset.New(p.N)
	}
	p.Graph.Neighbors(id, func(q int) bool {
		s.Add(q)
		return true
	})
	return s
}

// log2 returns log₂(n) rounded up, at least 1; the discrete stand-in for
// the paper's log n factors.
func log2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}

// shutdownThreshold returns the ears shut-down phase length in local
// steps: Θ(n/(n−f)·log n).
func (p Params) shutdownThreshold() int {
	surv := p.N - p.F
	if surv < 1 {
		surv = 1
	}
	t := int(math.Ceil(p.ShutdownC * float64(p.N) / float64(surv) * float64(log2(p.N))))
	if t < 1 {
		t = 1
	}
	return t
}

// searsFanout returns the sears per-step fan-out Θ(n^ε·log n), capped at n.
func (p Params) searsFanout() int {
	k := int(math.Ceil(p.FanC * math.Pow(float64(p.N), p.Epsilon) * float64(log2(p.N))))
	if k < 1 {
		k = 1
	}
	if k > p.N {
		k = p.N
	}
	return k
}

// tearsA returns the tears audience parameter a, capped at n.
func (p Params) tearsA() int {
	a := int(math.Ceil(p.TearsA * math.Sqrt(float64(p.N)) * float64(log2(p.N))))
	if a < 1 {
		a = 1
	}
	if a > p.N {
		a = p.N
	}
	return a
}

// tearsKappa returns the tears trigger granularity κ ≥ 1.
func (p Params) tearsKappa() int {
	k := int(math.Ceil(p.TearsKappa * math.Pow(float64(p.N), 0.25) * float64(log2(p.N))))
	if k < 1 {
		k = 1
	}
	return k
}

// Majority returns ⌊n/2⌋+1, the rumor target of majority gossip.
func (p Params) Majority() int { return p.N/2 + 1 }

// PushBudget returns the proactive-send budget of an informed push/pull
// process: ⌈PushPullC·n/(n−f)·log₂n⌉, at least 1.
func (p Params) PushBudget() int {
	surv := p.N - p.F
	if surv < 1 {
		surv = 1
	}
	b := int(math.Ceil(p.PushPullC * float64(p.N) / float64(surv) * float64(log2(p.N))))
	if b < 1 {
		b = 1
	}
	return b
}

// AvgRounds returns the sum-weight averaging send budget per process:
// ⌈AvgC·(log₂n + log₂⌈1/ε⌉)⌉, at least 1.
func (p Params) AvgRounds() int {
	invEps := int(math.Ceil(1 / p.AvgEpsilon))
	r := int(math.Ceil(p.AvgC * float64(log2(p.N)+log2(invEps))))
	if r < 1 {
		r = 1
	}
	return r
}
