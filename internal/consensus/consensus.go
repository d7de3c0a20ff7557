package consensus

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Params configures a consensus instance.
type Params struct {
	// N is the number of processes; F < N/2 the failure bound (the paper
	// assumes a minority of failures for consensus).
	N int
	F int
	// Transport selects the get-core dissemination (Table 2 row).
	Transport TransportKind
	// Gossip tunes the gossip transports (core.Params knobs).
	Gossip core.Params
	// Coin is the shared-coin flavor; nil defaults to a common coin
	// derived from the run seed.
	Coin Coin
}

// probeEvery is the idle-step interval at which an undecided process with
// a quiescent transport probes a random peer for history. Probing is the
// concrete realization of the paper's catch-up rule for processes that
// fell behind the gossip frontier.
const probeEvery = 8

// WithDefaults fills zero fields.
func (p Params) WithDefaults() Params {
	if p.Transport == "" {
		p.Transport = TransportDirect
	}
	p.Gossip.N, p.Gossip.F = p.N, p.F
	p.Gossip = p.Gossip.WithDefaults()
	return p
}

// Validate checks the parameters (consensus needs f < n/2).
func (p Params) Validate() error {
	if p.N < 1 {
		return fmt.Errorf("consensus: N = %d, need N >= 1", p.N)
	}
	if p.F < 0 || 2*p.F >= p.N {
		return fmt.Errorf("consensus: F = %d, need F < N/2 = %d/2", p.F, p.N)
	}
	return p.Gossip.Validate()
}

// History is the immutable catch-up record attached to every message: the
// outputs of all completed get-core calls plus the decision, if any. A
// process receiving a History ahead of its own position adopts the
// sender's outcomes — the paper's "as soon as a process receives a gossip
// message, it can use the received history log to catch up with the
// sender" — and a decided process's History lets anyone decide instantly.
type History struct {
	// Outputs[k] is the adopted-or-computed output of get-core k, where
	// k = 2·(round−1) + (step−1).
	Outputs []*core.Rumors
	// Decided/Value carry a decision.
	Decided bool
	Value   uint8
}

// Payload is the message payload of the consensus layer. A node builds one
// Payload per fan-out and sends that same object to every target (and one
// vote snapshot serves a whole Step), so a Payload must never be mutated
// after Send: the sender, the kernel and every receiver share it.
type Payload struct {
	// Idx is the global gossip-instance index 3·step + (sub−1), or -1 for
	// pure history/probe messages.
	Idx int
	// Inner is the transport's gossip payload (nil for history messages).
	Inner *core.GossipPayload
	// W is the sender's vote union for its current get-core.
	W *core.Rumors
	// Hist is the sender's history snapshot.
	Hist *History
	// Probe requests a history reply.
	Probe bool
}

var _ sim.Sizer = (*Payload)(nil)

// SizeBytes implements sim.Sizer.
func (p *Payload) SizeBytes() int {
	b := 8
	if p.Inner != nil {
		b += p.Inner.SizeBytes()
	}
	if p.W != nil {
		b += p.W.SizeBytes()
	}
	if p.Hist != nil {
		b += 2 + 8*len(p.Hist.Outputs)
	}
	return b
}

// Node is one consensus process. It is a sim.Node; the kernel and
// adversaries treat it exactly like a gossip node.
type Node struct {
	id    sim.ProcID
	n     int
	maj   int
	input uint8
	coin  Coin
	par   Params

	factory transportFactory
	r       *rng.RNG
	// probe draws catch-up targets: uniform on [n] on the clique, uniform
	// over the node's neighborhood on an explicit topology (a probe to a
	// non-neighbor would be dropped by the world and help nobody).
	probe topology.Sampler

	// Position: sub ∈ {1,2,3} within get-core #len(outputs).
	sub     int
	curVote uint8
	w       *core.Rumors

	// trs holds the transports of all still-active gossip instances,
	// keyed by instance index. Completing a subround locally does NOT
	// abandon its gossip: the paper's get-core "terminates when a process
	// receives ⌊n/2⌋+1 rumors", but the underlying gossip instance keeps
	// disseminating (and eventually quiesces on its own) — otherwise,
	// with exactly ⌊n/2⌋+1 survivors, the first process to move on would
	// strand everyone else below the threshold forever. Old instances are
	// retired once their gossip is idle or they fall out of the window.
	trs map[int]transport
	// spareInbox is inbox storage a retired gossip transport left behind,
	// handed to the next instance openInstance creates.
	spareInbox []sim.Message

	outputs []*core.Rumors
	hist    *History

	est  uint8
	pref uint8

	decided   bool
	decision  uint8
	decidedAt sim.Time
	rounds    int // rounds entered (diagnostics)

	idleSteps    int
	replyTargets []sim.ProcID
	idxScratch   []int
	// scratch collects one transport step's gossip sends before they are
	// wrapped in consensus payloads; every instance reuses it.
	scratch sim.Outbox

	// buffer holds messages for instances ahead of our position; they are
	// replayed when we get there. This keeps gossip transports efficient
	// when processes run slightly out of phase (a message is never useful
	// twice, so the buffer is drained destructively).
	buffer []futureMsg
}

// futureMsg is a buffered message for a future instance.
type futureMsg struct {
	idx   int
	from  sim.ProcID
	inner *core.GossipPayload
	w     *core.Rumors
}

// maxBuffered bounds the future-message buffer; overflow is dropped (the
// transports tolerate loss of relayed state, at worst costing extra steps).
const maxBuffered = 8192

// windowSpan is how many instances behind the current one a node keeps
// relaying (two full get-cores). Stragglers further behind are served by
// history replies instead.
const windowSpan = 6

var (
	_ sim.Node = (*Node)(nil)
)

// NewNode builds a consensus node with the given binary input.
func NewNode(id sim.ProcID, input uint8, p Params, r *rng.RNG, coin Coin) (*Node, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if input > 1 {
		return nil, fmt.Errorf("consensus: input %d not binary", input)
	}
	factory, err := newTransportFactory(p.Transport, id, p.Gossip)
	if err != nil {
		return nil, err
	}
	n := &Node{
		id:      id,
		n:       p.N,
		maj:     p.N/2 + 1,
		input:   input,
		coin:    coin,
		par:     p,
		factory: factory,
		r:       r,
		probe:   topology.NewSampler(int(id), p.N, p.Gossip.Graph),
		est:     input,
	}
	n.hist = &History{}
	n.startGetCore(input)
	return n, nil
}

// ID implements sim.Node.
func (n *Node) ID() sim.ProcID { return n.id }

// Decided returns the decision state (evaluators and examples read it).
func (n *Node) Decided() (bool, uint8, sim.Time) {
	return n.decided, n.decision, n.decidedAt
}

// Rounds returns the number of voting rounds the node entered.
func (n *Node) Rounds() int { return n.rounds }

// Outputs returns the node's completed get-core outputs (tests verify the
// common-core property on them).
func (n *Node) Outputs() []*core.Rumors { return n.outputs }

// curIdx returns the current global instance index.
func (n *Node) curIdx() int { return len(n.outputs)*3 + (n.sub - 1) }

// startGetCore begins a new get-core with the given own vote.
func (n *Node) startGetCore(vote uint8) {
	n.curVote = vote
	n.sub = 1
	n.w = core.NewRumors(n.n, true)
	n.w.Add(n.id, vote)
	n.openInstance()
	if len(n.outputs)%2 == 0 {
		n.rounds++
	}
}

// openInstance prunes retired transports and creates the transport for
// the current instance, whose index is not in the map yet. A retired gossip
// transport's inbox storage becomes the spare the new instance starts with,
// so instances stop regrowing their inboxes from nil.
func (n *Node) openInstance() {
	if n.trs == nil {
		n.trs = make(map[int]transport, windowSpan+1)
	}
	idx := n.curIdx()
	for k, tr := range n.trs {
		if k < idx-windowSpan || tr.idle() {
			if pt, ok := tr.(*protocolTransport); ok && cap(pt.inbox) > cap(n.spareInbox) {
				n.spareInbox = pt.inbox[:0]
			}
			delete(n.trs, k)
		}
	}
	tr := n.factory(idx, n.r.Fork(uint64(idx)+0x7A))
	if pt, ok := tr.(*protocolTransport); ok {
		pt.inbox, n.spareInbox = n.spareInbox, nil
	}
	n.trs[idx] = tr
}

// cur returns the current instance's transport.
func (n *Node) cur() transport { return n.trs[n.curIdx()] }

// wFor returns the vote union to attach to messages of instance idx: the
// frozen output for an older get-core, else a snapshot of the live union.
// The live union does not change while a Step sends, so *snap caches the
// snapshot and the Step takes at most one.
func (n *Node) wFor(idx int, snap **core.Rumors) *core.Rumors {
	if step := idx / 3; step < len(n.outputs) {
		return n.outputs[step]
	}
	if *snap == nil {
		*snap = n.w.Snapshot()
	}
	return *snap
}

// Step implements sim.Node.
func (n *Node) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	n.replyTargets = n.replyTargets[:0]

	// Pass 1: adopt the most advanced history seen this step.
	var best *History
	for _, m := range inbox {
		pl, ok := m.Payload.(*Payload)
		if !ok {
			continue
		}
		if pl.Hist != nil {
			if pl.Hist.Decided && (best == nil || !best.Decided) {
				best = pl.Hist
			} else if best == nil || (!best.Decided && len(pl.Hist.Outputs) > len(best.Outputs)) {
				best = pl.Hist
			}
		}
	}
	if best != nil {
		n.adoptHistory(best, now)
	}

	if n.decided {
		// Halted: stay responsive so stragglers terminate — reply with our
		// (decided) history to anyone not yet known to have decided.
		for _, m := range inbox {
			pl, ok := m.Payload.(*Payload)
			if !ok {
				continue
			}
			if pl.Hist == nil || !pl.Hist.Decided {
				n.queueReply(m.From)
			}
		}
		n.sendReplies(out)
		return
	}

	// Pass 2: feed current-instance messages; merge vote unions from any
	// message of the same get-core; help stragglers with history replies.
	myStep := len(n.outputs)
	for _, m := range inbox {
		pl, ok := m.Payload.(*Payload)
		if !ok {
			continue
		}
		if pl.Probe {
			n.queueReply(m.From)
		}
		if pl.Idx < 0 {
			continue // pure history message, already handled
		}
		senderStep := pl.Idx / 3
		switch {
		case senderStep == myStep:
			n.w.Union(pl.W)
			if pl.Idx == n.curIdx() {
				n.cur().absorb(now, m.From, pl.Inner)
			} else if pl.Idx > n.curIdx() {
				n.bufferFuture(pl.Idx, m.From, pl.Inner, nil) // W already merged
			} else if tr, ok := n.trs[pl.Idx]; ok {
				tr.absorb(now, m.From, pl.Inner)
			}
		case senderStep < myStep:
			// Older get-core: keep relaying if the instance is still in
			// our window; reply with history if the sender is far behind.
			if tr, ok := n.trs[pl.Idx]; ok {
				tr.absorb(now, m.From, pl.Inner)
			} else {
				n.queueReply(m.From)
			}
		default:
			// Sender is mid-way through a later get-core (its completed
			// outputs were adopted in pass 1); keep the message for when
			// we reach that instance.
			n.bufferFuture(pl.Idx, m.From, pl.Inner, pl.W)
		}
	}

	// Advance through any completions (threshold ⌊n/2⌋+1).
	n.drainBuffer(now)
	for !n.decided && n.cur().count() >= n.maj {
		n.completeSubround(now)
		if !n.decided {
			n.drainBuffer(now)
		}
	}
	if n.decided {
		n.sendReplies(out)
		return
	}

	// Transport step: spontaneous gossip sends for every active instance
	// (the current one plus older ones still disseminating). Instances are
	// stepped in index order — map iteration order would break replay
	// determinism. A fan-out of one inner payload becomes one shared
	// consensus payload.
	sent := false
	n.idxScratch = n.idxScratch[:0]
	for idx := range n.trs {
		n.idxScratch = append(n.idxScratch, idx)
	}
	sort.Ints(n.idxScratch)
	var snap *core.Rumors
	for _, idx := range n.idxScratch {
		n.scratch.Reset(n.id, now, n.n)
		n.trs[idx].step(now, &n.scratch)
		var pl *Payload
		for _, m := range n.scratch.Messages() {
			inner, ok := m.Payload.(*core.GossipPayload)
			if !ok {
				continue
			}
			if pl == nil || pl.Inner != inner {
				pl = &Payload{Idx: idx, Inner: inner, W: n.wFor(idx, &snap), Hist: n.hist}
			}
			sent = true
			out.Send(m.To, pl)
		}
	}

	// Probing: an undecided process whose transports have all gone idle
	// would otherwise wait forever on peers that moved on; it periodically
	// asks a random peer for history (the catch-up channel).
	if !sent && n.allIdle() {
		n.idleSteps++
		if n.idleSteps%probeEvery == 0 {
			if q, ok := n.probe.One(n.r); ok {
				out.Send(sim.ProcID(q), &Payload{Idx: -1, Probe: true, Hist: n.hist})
			}
		}
	} else {
		n.idleSteps = 0
	}
	n.sendReplies(out)
}

// allIdle reports whether every active transport is idle.
func (n *Node) allIdle() bool {
	for _, tr := range n.trs {
		if !tr.idle() {
			return false
		}
	}
	return true
}

// Quiescent implements sim.Node: only a decided process is quiescent (it
// still replies reactively, which does not break world-quiet detection).
func (n *Node) Quiescent() bool { return n.decided }

// bufferFuture stores a message for an instance we have not reached.
func (n *Node) bufferFuture(idx int, from sim.ProcID, inner *core.GossipPayload, w *core.Rumors) {
	if len(n.buffer) >= maxBuffered {
		return
	}
	n.buffer = append(n.buffer, futureMsg{idx: idx, from: from, inner: inner, w: w})
}

// drainBuffer replays buffered messages that have become current: vote
// unions for the get-core we just entered, transport payloads for the
// instance we just started. Stale entries are discarded.
func (n *Node) drainBuffer(now sim.Time) {
	if len(n.buffer) == 0 {
		return
	}
	cur := n.curIdx()
	myStep := len(n.outputs)
	keep := n.buffer[:0]
	for _, fm := range n.buffer {
		switch {
		case fm.idx < cur:
			// stale, drop
		case fm.idx/3 == myStep:
			if fm.w != nil {
				n.w.Union(fm.w)
			}
			if fm.idx == cur {
				n.cur().absorb(now, fm.from, fm.inner)
			} else {
				keep = append(keep, futureMsg{idx: fm.idx, from: fm.from, inner: fm.inner})
			}
		default:
			keep = append(keep, fm)
		}
	}
	n.buffer = keep
}

// queueReply records a history-reply target (deduplicated per step).
func (n *Node) queueReply(to sim.ProcID) {
	if to == n.id {
		return
	}
	for _, t := range n.replyTargets {
		if t == to {
			return
		}
	}
	n.replyTargets = append(n.replyTargets, to)
}

// sendReplies sends one shared history reply to every queued target.
func (n *Node) sendReplies(out *sim.Outbox) {
	if len(n.replyTargets) == 0 {
		return
	}
	reply := &Payload{Idx: -1, Hist: n.hist}
	for _, to := range n.replyTargets {
		out.Send(to, reply)
	}
	n.replyTargets = n.replyTargets[:0]
}

// completeSubround advances past the current subround; after the third,
// the get-core output is frozen and the voting rules applied.
func (n *Node) completeSubround(now sim.Time) {
	if n.sub < 3 {
		n.sub++
		n.openInstance()
		return
	}
	output := &core.Rumors{Set: n.w.Set.Snapshot(), Vals: n.w.Vals}
	n.recordOutput(output, now)
}

// recordOutput appends a completed get-core output (own or adopted) and
// applies the corresponding voting rule.
func (n *Node) recordOutput(output *core.Rumors, now sim.Time) {
	k := len(n.outputs)
	n.outputs = append(n.outputs, output)
	round := k/2 + 1
	if k%2 == 0 {
		// First election (on estimates): a value voted by a majority of
		// all processes becomes the preference, else ⊥.
		n.pref = majorityPref(output, n.n)
		n.rebuildHist()
		n.startGetCore(n.pref)
		return
	}
	// Second election (on preferences).
	decide, v, useCoin := decideRule(output)
	switch {
	case decide:
		n.est = v
		n.decide(v, now)
		return
	case useCoin:
		n.est = n.coin.Flip(round, int(n.id))
	default:
		n.est = v
	}
	n.rebuildHist()
	n.startGetCore(n.est)
}

// adoptHistory fast-forwards through the outcomes recorded by a peer.
func (n *Node) adoptHistory(h *History, now sim.Time) {
	if h.Decided && !n.decided {
		n.decide(h.Value, now)
		return
	}
	for !n.decided && len(n.outputs) < len(h.Outputs) {
		n.recordOutput(h.Outputs[len(n.outputs)], now)
	}
}

func (n *Node) decide(v uint8, now sim.Time) {
	n.decided = true
	n.decision = v
	n.decidedAt = now
	n.rebuildHist()
}

// rebuildHist publishes a fresh immutable history snapshot.
func (n *Node) rebuildHist() {
	n.hist = &History{
		Outputs: append([]*core.Rumors(nil), n.outputs...),
		Decided: n.decided,
		Value:   n.decision,
	}
}

// majorityPref returns the value voted by more than n/2 distinct processes
// in the output, or ⊥. Two distinct values can never both clear n/2, so
// all non-⊥ preferences across processes agree.
func majorityPref(out *core.Rumors, n int) uint8 {
	c0, c1, _ := countVotes(out)
	switch {
	case c0 > n/2:
		return VoteZero
	case c1 > n/2:
		return VoteOne
	default:
		return VoteBot
	}
}

// decideRule implements the second election: all votes for one value →
// decide it; some votes for a value → adopt it as the estimate; only ⊥ →
// flip the coin. Values 0 and 1 cannot coexist (preferences derive from
// majorities); the defensive branch keeps agreement anyway by never
// deciding on a conflicted output.
func decideRule(out *core.Rumors) (decide bool, v uint8, useCoin bool) {
	c0, c1, cb := countVotes(out)
	switch {
	case c0 > 0 && c1 > 0:
		if c1 >= c0 {
			return false, VoteOne, false
		}
		return false, VoteZero, false
	case c0 > 0:
		return cb == 0, VoteZero, false
	case c1 > 0:
		return cb == 0, VoteOne, false
	default:
		return false, 0, true
	}
}

// countVotes tallies the vote values in an output.
func countVotes(out *core.Rumors) (c0, c1, cb int) {
	out.Set.ForEach(func(i int) bool {
		switch out.Vals[i] {
		case VoteZero:
			c0++
		case VoteOne:
			c1++
		default:
			cb++
		}
		return true
	})
	return c0, c1, cb
}
