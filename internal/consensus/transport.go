package consensus

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
)

// transport disseminates one gossip instance (one get-core subround) of
// consensus: it spreads contributor identities until the owner has heard
// from a majority. The vote payloads ride alongside at the consensus layer
// (every absorbed message's vote union is merged by the Node, every sent
// message carries the Node's current union), so a transport only tracks
// who has contributed.
type transport interface {
	// step runs one local step, sending the instance's gossip payloads
	// through out. The owning Node resets out before each call and reuses
	// it for every instance.
	step(now sim.Time, out *sim.Outbox)
	// absorb processes an incoming instance message's inner payload.
	absorb(now sim.Time, from sim.ProcID, inner *core.GossipPayload)
	// count returns the number of distinct contributors heard (incl. self).
	count() int
	// idle reports whether the transport has nothing more to send
	// spontaneously (used to decide when probing is warranted).
	idle() bool
}

// TransportKind selects the get-core dissemination mechanism, i.e. the row
// of Table 2 being reproduced.
type TransportKind string

// The four transports of Table 2.
const (
	// TransportDirect: three phases of all-to-all — the Canetti–Rabin
	// baseline with O(n²) messages.
	TransportDirect TransportKind = "direct"
	// TransportEARS, TransportSEARS, TransportTEARS: get-core via three
	// sequential instances of the corresponding gossip protocol, each
	// terminating when a process has received ⌊n/2⌋+1 rumors.
	TransportEARS  TransportKind = "ears"
	TransportSEARS TransportKind = "sears"
	TransportTEARS TransportKind = "tears"
)

// TransportKinds lists all transports.
func TransportKinds() []TransportKind {
	return []TransportKind{TransportDirect, TransportEARS, TransportSEARS, TransportTEARS}
}

// transportFactory builds a fresh transport for each gossip instance.
type transportFactory func(instance int, r *rng.RNG) transport

// newTransportFactory returns the factory for a transport kind.
func newTransportFactory(kind TransportKind, id sim.ProcID, p core.Params) (transportFactory, error) {
	p = p.WithDefaults()
	switch kind {
	case TransportDirect:
		return func(_ int, _ *rng.RNG) transport {
			return newDirectTransport(id, p.N)
		}, nil
	case TransportEARS, TransportSEARS, TransportTEARS:
		proto, err := core.ByName(string(kind))
		if err != nil {
			return nil, err
		}
		// Gossip nodes embedded in consensus transports run unpooled
		// (p.Pool stays nil): their payloads are wrapped in consensus
		// Payloads, which the consensus node may buffer across steps for
		// future instances — retaining them past the delivering Step, which
		// the pooled-release contract (sim.Releasable) forbids. Enforce
		// that invariant here rather than inheriting whatever the caller
		// put in the tuning parameters.
		p.Pool, p.NoPool = nil, true
		// They also run lean: consensus reads only an embedded node's
		// rumor count (contributors), never its per-rumor acquisition
		// times, so the Θ(n) time arrays per node would be dead weight.
		p.Lean = true
		return func(_ int, r *rng.RNG) transport {
			return &protocolTransport{node: proto.NewNode(id, p, r)}
		}, nil
	default:
		return nil, fmt.Errorf("consensus: unknown transport %q (have %v)", kind, TransportKinds())
	}
}

// protocolTransport adapts a core gossip node: the node's rumor set *is*
// the contributor set. Incoming messages are buffered and fed to the node
// at its next local step, matching the model ("a process receives a subset
// of the messages sent to it, performs some computation, sends...").
type protocolTransport struct {
	node  sim.Node
	inbox []sim.Message
}

var _ transport = (*protocolTransport)(nil)

func (t *protocolTransport) absorb(_ sim.Time, from sim.ProcID, inner *core.GossipPayload) {
	t.inbox = append(t.inbox, sim.Message{From: from, To: t.node.ID(), Payload: inner})
}

func (t *protocolTransport) step(now sim.Time, out *sim.Outbox) {
	t.node.Step(now, t.inbox, out)
	t.inbox = t.inbox[:0]
}

func (t *protocolTransport) count() int {
	return t.node.(core.RumorHolder).RumorSet().Count()
}

func (t *protocolTransport) idle() bool { return t.node.Quiescent() && len(t.inbox) == 0 }

// directTransport is the all-to-all phase of the Canetti–Rabin baseline:
// each process sends its contribution to everyone once, then waits.
type directTransport struct {
	id     sim.ProcID
	n      int
	heard  *bitset.Set
	sent   bool
	shared *core.GossipPayload
}

var _ transport = (*directTransport)(nil)

func newDirectTransport(id sim.ProcID, n int) *directTransport {
	h := bitset.New(n)
	h.Add(int(id))
	rum := core.NewRumors(n, false)
	rum.Add(id, core.NoValue)
	return &directTransport{id: id, n: n, heard: h, shared: &core.GossipPayload{Rumors: rum}}
}

func (t *directTransport) absorb(_ sim.Time, from sim.ProcID, inner *core.GossipPayload) {
	// Every sender of an instance message is a contributor (its message
	// carries its vote union, which includes its own subround rumor).
	t.heard.Add(int(from))
	if inner != nil && inner.Rumors != nil {
		t.heard.UnionWith(inner.Rumors.Set)
	}
}

func (t *directTransport) step(_ sim.Time, out *sim.Outbox) {
	if t.sent {
		return
	}
	t.sent = true
	for q := 0; q < t.n; q++ {
		if sim.ProcID(q) != t.id {
			out.Send(sim.ProcID(q), t.shared)
		}
	}
}

func (t *directTransport) count() int { return t.heard.Count() }

func (t *directTransport) idle() bool { return t.sent }
