package core

import (
	"repro/internal/rng"
	"repro/internal/sim"
)

// TEARS is the paper's Two-hop Epidemic Asynchronous Rumor Spreading
// protocol (§5, Figure 3). It solves majority gossip — every correct
// process receives at least ⌊n/2⌋+1 of the n rumors — in O(d+δ) time with
// O(n^{7/4}·log²n) messages, for f < n/2, under an oblivious adversary.
// Its message complexity is independent of d and δ, which is what makes
// CR-tears the first constant-time asynchronous consensus protocol with
// strictly subquadratic message complexity.
//
// Mechanics: process p pre-selects random audiences Π1(p), Π2(p) (each
// other process joins with probability a/n). In its first local step p
// sends its rumor with a raised flag to Π1 (first-level messages). It then
// counts incoming first-level messages and, whenever the count crosses a
// trigger point — any value in the window [µ−κ, µ+κ), or µ+iκ for positive
// integers i — it broadcasts all gathered rumors to Π2 (second-level
// messages), at most one broadcast per local step (Figure 3 lines 20–27).
//
// Faithfulness notes:
//   - The Π1 transmission happens once, in the first local step, per the
//     paper's prose ("In the first local step, each process p sends...");
//     Figure 3 draws the block inside the loop but lowers the flag after
//     the first iteration, and the complexity analysis (a+κ first-level
//     sends per process) confirms the single-shot reading.
//   - Triggers are edge-triggered on the counter crossing a trigger value:
//     a batch of deliveries that jumps the counter across one or more
//     trigger points fires one broadcast (the pseudocode's per-step bcast
//     flag), and a counter parked inside the window does not re-fire —
//     otherwise the protocol would never be quiescent, violating the
//     paper's quiescence requirement.
type TEARS struct{}

var _ Protocol = TEARS{}

// Name implements Protocol.
func (TEARS) Name() string { return NameTEARS }

// NewNode implements Protocol.
func (TEARS) NewNode(id sim.ProcID, p Params, r *rng.RNG) sim.Node {
	p = p.WithDefaults()
	n := p.N
	a := p.tearsA()
	node := &tearsNode{
		Tracker: p.NewTracker(id, NoValue),
		id:      id,
		n:       n,
		a:       a,
		mu:      a / 2,
		kappa:   p.tearsKappa(),
		pool:    p.Pool,
		r:       r,
	}
	// Π1, Π2: include every potential target independently with
	// probability a/degree (Figure 3 lines 6–7). On the paper's clique the
	// degree is n, giving the original a/n; on an explicit topology the
	// audiences are neighborhood subsets with the same expected size a
	// (clamped to the full neighborhood when a exceeds the degree).
	ps := p.sampler(int(id))
	prob := 0.0
	if deg := ps.Degree(); deg > 0 {
		prob = float64(a) / float64(deg)
	}
	// Audience sizes concentrate tightly around a (Lemma 8); pre-sizing to
	// a small margin above the mean makes construction two allocations
	// instead of a growth chain per audience.
	cap1 := a + a/4 + 8
	node.pi1 = make([]sim.ProcID, 0, cap1)
	node.pi2 = make([]sim.ProcID, 0, cap1)
	ps.Each(func(q int) bool {
		if r.Bool(prob) {
			node.pi1 = append(node.pi1, sim.ProcID(q))
		}
		if r.Bool(prob) {
			node.pi2 = append(node.pi2, sim.ProcID(q))
		}
		return true
	})
	return node
}

// Evaluator implements Protocol: tears promises majority gossip.
func (TEARS) Evaluator(p Params) sim.Evaluator {
	return MajorityGossipEvaluator{Params: p.WithDefaults()}
}

type tearsNode struct {
	Tracker
	id sim.ProcID
	n  int

	a, mu, kappa int
	pi1, pi2     []sim.ProcID

	started  bool
	upCnt    int // first-level (flag ↑) messages received
	checked  int // upCnt value at the last trigger evaluation
	sentSnd  int // second-level broadcasts performed (diagnostics)
	safeEnds sim.Time

	pool *Pool
	r    *rng.RNG
}

var (
	_ sim.Node    = (*tearsNode)(nil)
	_ RumorHolder = (*tearsNode)(nil)
	_ sim.Cloner  = (*tearsNode)(nil)
)

// ID implements sim.Node.
func (t *tearsNode) ID() sim.ProcID { return t.id }

// Step implements sim.Node.
func (t *tearsNode) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	if !t.started {
		// First local step: first-level messages with the flag raised.
		t.started = true
		payload := t.pool.Gossip(t.rum.Snapshot(), nil, true)
		out.SendAll(t.pi1, payload)
	}

	for _, m := range inbox {
		pl, ok := m.Payload.(*GossipPayload)
		if !ok {
			continue
		}
		t.Absorb(pl.Rumors, now)
		if pl.Flag {
			t.upCnt++
		}
	}

	if t.upCnt != t.checked {
		prev := t.checked
		t.checked = t.upCnt
		if t.triggerCrossed(prev, t.upCnt) {
			t.sentSnd++
			t.safeEnds = now
			payload := t.pool.Gossip(t.rum.Snapshot(), nil, false)
			out.SendAll(t.pi2, payload)
		}
	}
}

// triggerCrossed reports whether the first-level counter crossed a trigger
// point while moving from prev to cur (prev < cur): any value in
// [µ−κ, µ+κ), or µ+iκ for a positive integer i.
func (t *tearsNode) triggerCrossed(prev, cur int) bool {
	if cur <= prev {
		return false
	}
	lo, hi := t.mu-t.kappa, t.mu+t.kappa-1 // inclusive window bounds
	if lo < 1 {
		lo = 1
	}
	// Window: some value in (prev, cur] ∩ [lo, hi]?
	a, b := prev+1, cur
	if lo > a {
		a = lo
	}
	if hi < b {
		b = hi
	}
	if a <= b {
		return true
	}
	// Spikes µ+iκ, i ≥ 1: crossed one iff the spike count below changed.
	return t.spikesUpTo(cur) > t.spikesUpTo(prev)
}

// spikesUpTo counts trigger points µ+iκ (i ≥ 1) that are ≤ x.
func (t *tearsNode) spikesUpTo(x int) int {
	if x < t.mu+t.kappa {
		return 0
	}
	return (x - t.mu) / t.kappa
}

// Quiescent implements sim.Node: after the first-level transmission, the
// node only reacts to deliveries, so it is quiescent whenever no message is
// in flight toward it.
func (t *tearsNode) Quiescent() bool { return t.started }

// CloneNode implements sim.Cloner.
func (t *tearsNode) CloneNode() sim.Node {
	return &tearsNode{
		Tracker:  t.CloneTracker(),
		id:       t.id,
		n:        t.n,
		a:        t.a,
		mu:       t.mu,
		kappa:    t.kappa,
		pi1:      append([]sim.ProcID(nil), t.pi1...),
		pi2:      append([]sim.ProcID(nil), t.pi2...),
		started:  t.started,
		upCnt:    t.upCnt,
		checked:  t.checked,
		sentSnd:  t.sentSnd,
		safeEnds: t.safeEnds,
		r:        t.r.Clone(),
	}
}
