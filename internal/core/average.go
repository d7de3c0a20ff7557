package core

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Average is asynchronous sum-weight averaging gossip in the style of
// Picard et al. ("Non asymptotic bounds in asynchronous sum-weight gossip
// protocols"): every process i starts with a value x_i (drawn from its
// private stream) and maintains a (sum, weight) pair, initially (x_i, 1).
// On each of its R budgeted local steps it halves both components, keeps
// one half and sends the other to a sampled target; received pairs are
// added in. The estimate s/w of every process converges to the mean of
// the x_i — mass (Σs, Σw) is conserved exactly, and mixing drives every
// ratio together. Convergence is judged non-asymptotically: the evaluator
// accepts when every live process is within AvgEpsilon of the true mean,
// and reports the diffusion time (last mass movement) as CompletedAt.
//
// The family is the repository's first numeric-aggregation workload:
// payloads are two float64s and per-process state is O(1), so it shares
// the push-pull family's immunity to the memory wall. All float arithmetic
// happens inside Step against canonically-ordered inboxes, and halving is
// exact in binary floating point, so runs are bit-identical across
// serial/sharded and pooled/unpooled execution (pinned by the float-
// determinism test).
//
// Crashes are outside this family's domain: a crash destroys the mass the
// victim holds, and the survivors then agree on a value that is not the
// mean. The scenario generator draws averaging runs crash-free, and the
// evaluator judges against the full-population mean regardless.
type Average struct{}

var _ Protocol = Average{}

// NameAverage is the averaging protocol's name.
const NameAverage = "average"

// Name implements Protocol.
func (Average) Name() string { return NameAverage }

// NewNode implements Protocol. The initial value is drawn uniformly from
// [0, 1) — the node's first draw, so experiments can reconstruct it from
// the seed.
func (Average) NewNode(id sim.ProcID, p Params, r *rng.RNG) sim.Node {
	p = p.WithDefaults()
	x := r.Float64()
	return &avgNode{
		id:     id,
		x:      x,
		s:      x,
		w:      1,
		rounds: p.AvgRounds(),
		peers:  p.sampler(int(id)),
		r:      r,
	}
}

// Evaluator implements Protocol.
func (Average) Evaluator(p Params) sim.Evaluator {
	return AveragingEvaluator{Params: p.WithDefaults()}
}

// AvgPayload is one message's share of sum-weight mass. Nodes send it as
// *AvgPayload, carved from a per-node chunk so that a send does not
// allocate; a payload is never written again once sent, so receivers,
// tracers and the wire codec may read it at any later time.
type AvgPayload struct {
	S float64
	W float64
}

var _ sim.Sizer = (*AvgPayload)(nil)

// SizeBytes implements sim.Sizer: two float64 components.
func (AvgPayload) SizeBytes() int { return 16 }

type avgNode struct {
	id         sim.ProcID
	x          float64 // initial value, kept for the evaluator
	s, w       float64
	rounds     int
	lastUpdate sim.Time
	peers      topology.Sampler
	r          *rng.RNG
	// chunk holds the node's unsent payload slots; each send carves
	// chunk[0] off the front. It belongs to this node alone, so sharded
	// supersteps never share a slot.
	chunk []AvgPayload
}

// avgChunk caps the payload slots one chunk allocation provides.
const avgChunk = 64

var (
	_ sim.Node     = (*avgNode)(nil)
	_ AverageState = (*avgNode)(nil)
	_ sim.Cloner   = (*avgNode)(nil)
)

// ID implements sim.Node.
func (nd *avgNode) ID() sim.ProcID { return nd.id }

// Step implements sim.Node: fold in received mass (in delivery order —
// float addition does not commute bitwise, and the kernel's canonical
// order makes this deterministic), then halve-and-send while in budget.
func (nd *avgNode) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	for _, m := range inbox {
		if pl, ok := m.Payload.(*AvgPayload); ok {
			nd.s += pl.S
			nd.w += pl.W
			nd.lastUpdate = now
		}
	}
	if nd.rounds <= 0 {
		return
	}
	nd.rounds--
	if q, ok := nd.peers.One(nd.r); ok {
		// Halve only when a target exists: an unsendable half would be
		// destroyed mass.
		nd.s /= 2
		nd.w /= 2
		nd.lastUpdate = now
		out.Send(sim.ProcID(q), nd.payload())
	}
}

// payload carves the next payload slot, filled with the current (s, w).
// An empty chunk is refilled with at most the sends still budgeted, this
// one included, so a node never allocates slots it cannot use.
func (nd *avgNode) payload() *AvgPayload {
	if len(nd.chunk) == 0 {
		nd.chunk = make([]AvgPayload, min(avgChunk, nd.rounds+1))
	}
	pl := &nd.chunk[0]
	nd.chunk = nd.chunk[1:]
	*pl = AvgPayload{S: nd.s, W: nd.w}
	return pl
}

// Quiescent implements sim.Node: the send budget is spent. Late-arriving
// mass is still folded in (absorbing costs no sends), and a pending
// message keeps the world non-quiet until delivered.
func (nd *avgNode) Quiescent() bool { return nd.rounds <= 0 }

// InitialValue implements AverageState.
func (nd *avgNode) InitialValue() float64 { return nd.x }

// Estimate implements AverageState.
func (nd *avgNode) Estimate() (sum, weight float64) { return nd.s, nd.w }

// LastMassUpdate implements AverageState.
func (nd *avgNode) LastMassUpdate() sim.Time { return nd.lastUpdate }

// CloneNode implements sim.Cloner.
func (nd *avgNode) CloneNode() sim.Node {
	c := *nd
	c.r = nd.r.Clone()
	c.chunk = nil // the original keeps carving its own slots
	return &c
}

// Reseed implements Reseeder.
func (nd *avgNode) Reseed(r *rng.RNG) { nd.r = r }

// AverageState is implemented by nodes of averaging protocols: the initial
// value (to reconstruct the consensus target), the current (sum, weight)
// estimate, and the time mass last moved (the diffusion-time proxy).
type AverageState interface {
	InitialValue() float64
	Estimate() (sum, weight float64)
	LastMassUpdate() sim.Time
}

// AveragingEvaluator judges ε-consensus: every live process's estimate
// s/w lies within Params.AvgEpsilon of the mean of all n initial values.
// CompletedAt is the last time mass moved anywhere — the non-asymptotic
// diffusion time of the run.
type AveragingEvaluator struct {
	Params Params
}

var _ sim.Evaluator = AveragingEvaluator{}

// Evaluate implements sim.Evaluator.
func (e AveragingEvaluator) Evaluate(v sim.View) sim.Outcome {
	n := v.N()
	var total float64
	states := make([]AverageState, n)
	for p := 0; p < n; p++ {
		st, ok := v.Node(sim.ProcID(p)).(AverageState)
		if !ok {
			return sim.Outcome{Detail: fmt.Sprintf("node %d does not implement AverageState", p)}
		}
		states[p] = st
		total += st.InitialValue()
	}
	mean := total / float64(n)
	eps := e.Params.AvgEpsilon
	var completedAt sim.Time
	for p := 0; p < n; p++ {
		if !v.Alive(sim.ProcID(p)) {
			continue
		}
		s, w := states[p].Estimate()
		if !(w > 0) {
			return sim.Outcome{Detail: fmt.Sprintf(
				"averaging violated: process %d has weight %v", p, w)}
		}
		if err := math.Abs(s/w - mean); err > eps {
			return sim.Outcome{Detail: fmt.Sprintf(
				"ε-consensus violated: process %d estimates %.6f, mean %.6f (|err| = %.2e > ε = %.2e)",
				p, s/w, mean, err, eps)}
		}
		if at := states[p].LastMassUpdate(); at > completedAt {
			completedAt = at
		}
	}
	return sim.Outcome{OK: true, CompletedAt: completedAt}
}
