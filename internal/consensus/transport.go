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
	// through out, the owning Node's outbox for this Step. The Node then
	// rewrites the payloads of those sends to consensus payloads.
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

// transportFactory builds the transport of one gossip instance from the
// instance's random stream r. For a gossip transport kind it rebuilds
// recycled, a transport its node retired, in place, and allocates a new
// one only when recycled is nil. The direct transport ignores both.
type transportFactory func(r rng.RNG, recycled *protocolTransport) transport

// newTransportFactory returns the factory for a transport kind.
func newTransportFactory(kind TransportKind, id sim.ProcID, p core.Params, pool feedPool) (transportFactory, error) {
	p = p.WithDefaults()
	switch kind {
	case TransportDirect:
		return func(rng.RNG, *protocolTransport) transport {
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
		return func(r rng.RNG, pt *protocolTransport) transport {
			if pt == nil {
				pt = &protocolTransport{pool: pool, r: r}
				pt.node = proto.NewNode(id, p, &pt.r).(resettable)
				return pt
			}
			pt.r = r
			pt.node.Reset(id, p, &pt.r)
			return pt
		}, nil
	default:
		return nil, fmt.Errorf("consensus: unknown transport %q (have %v)", kind, TransportKinds())
	}
}

// protocolTransport adapts a core gossip node: the node's rumor set *is*
// the contributor set. Incoming messages are buffered and fed to the node
// at its next local step, matching the model ("a process receives a subset
// of the messages sent to it, performs some computation, sends...").
// The buffer, feed, is borrowed from the pool at the Step's first absorb
// and returned after the step or at retirement (dropping what was not
// stepped). A retired transport is recycled whole: the node is Reset, and
// r is held by value so that a new instance allocates no generator.
type protocolTransport struct {
	node resettable
	feed []sim.Message
	pool feedPool
	r    rng.RNG
}

// feedPool holds the idle feed buffers of one set of nodes, which sharded
// worlds step concurrently; a buffer returned to a full pool is dropped.
// Only transports that absorbed messages in the current Step hold one.
type feedPool chan []sim.Message

// feedPoolSize exceeds what nodes stepping at once hold: one Step borrows
// at most windowSpan+1 buffers.
const feedPoolSize = 64

// resettable is a gossip node that can be rebuilt in place: core's ears,
// sears and tears nodes, whose Reset(id, p, r) leaves them as NewNode(id,
// p, r) would build them.
type resettable interface {
	sim.Node
	Reset(id sim.ProcID, p core.Params, r *rng.RNG)
}

var _ transport = (*protocolTransport)(nil)

func (t *protocolTransport) absorb(_ sim.Time, from sim.ProcID, inner *core.GossipPayload) {
	if t.feed == nil {
		select {
		case t.feed = <-t.pool:
		default:
		}
	}
	t.feed = append(t.feed, sim.Message{From: from, To: t.node.ID(), Payload: inner})
}

func (t *protocolTransport) step(now sim.Time, out *sim.Outbox) {
	t.node.Step(now, t.feed, out)
	t.release()
}

// release clears the feed and returns it to the pool.
func (t *protocolTransport) release() {
	if t.feed != nil {
		clear(t.feed)
		select {
		case t.pool <- t.feed[:0]:
		default:
		}
		t.feed = nil
	}
}

func (t *protocolTransport) count() int {
	return t.node.(core.RumorHolder).RumorSet().Count()
}

func (t *protocolTransport) idle() bool { return t.node.Quiescent() && len(t.feed) == 0 }

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
