// Package cluster is the repository's real-concurrency runtime: a
// networked gossip cluster where every process owns a TCP listener,
// messages travel as length-prefixed versioned binary envelopes carrying
// the simulator's own payload snapshots, and a registry provides join/
// leave, heartbeat health and peer discovery. The point is not a new
// protocol stack — the protocol nodes are exactly the sim.Node state
// machines the simulator and the fuzzer execute — but a new adversary:
// real network delay, OS scheduling and churn replace the declared
// oblivious schedule, and the resulting live event trace is judged
// against a live-adapted subset of the scenario oracle catalog (completion
// and validity are the catalog's own judgments, not adaptations). The same
// ScenarioSpec that runs in the simulator replays over the cluster
// (scenario's live replay seam), which is what makes the production path
// simulation-validated.
//
// Layering:
//
//	wire.go      framed, versioned envelopes (data plane binary, control plane JSON)
//	transport.go per-node TCP listener + dialing with retry/backoff
//	registry.go  membership, heartbeat health, discovery, run control
//	node.go      per-node lifecycle: listen → register → gossip → drain → deregister
//	trace.go     wall-clock live event trace riding the sim.Tracer seam
//	driver.go    cluster orchestration (in-process or multi-process), quiescence
//	oracles.go   live-adapted oracle subset over the finished run
//	bench.go     the schema-versioned BENCH_live.json artifact
package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
)

// Wire framing: every connection carries a stream of frames, each a
// big-endian uint32 length followed by that many body bytes. A body is a
// versioned envelope: magic (4 bytes), version (1), kind (1), then the
// kind-specific payload. Gossip envelopes (the data plane) are fully
// binary; registry envelopes (the control plane) carry JSON — they are
// low-rate and benefit from being debuggable on the wire.
const (
	// WireMagic guards against cross-protocol connections ("RGOS").
	WireMagic = 0x52474f53
	// WireVersion is the envelope version; bumped on incompatible change.
	WireVersion = 1
	// MaxFrame bounds a frame body. Gossip payloads are O(n²) bits in the
	// worst case (the informed-list matrix); 16 MiB covers n ≈ 11000 and
	// shields the decoder from corrupt lengths.
	MaxFrame = 16 << 20

	envelopeHeader = 6 // magic(4) + version(1) + kind(1)
)

// Envelope kinds.
const (
	// KindGossip is the data plane: a protocol message between nodes.
	KindGossip = 0x01
	// Control plane (registry ⇄ node), JSON bodies.
	KindJoin         = 0x10 // node → registry: register id + addresses
	KindJoinOK       = 0x11 // registry → node: accepted, current members
	KindHeartbeat    = 0x12 // node → registry: liveness + counters
	KindHeartbeatAck = 0x13 // registry → node: directive + members
	KindLeave        = 0x14 // node → registry: deregister
	KindLeaveOK      = 0x15 // registry → node: goodbye
	KindReport       = 0x16 // node → registry: final NodeReport (JSON)
	KindReportOK     = 0x17 // registry → node: report accepted
)

// WriteFrame writes one framed envelope.
func WriteFrame(w io.Writer, kind byte, body []byte) error {
	if len(body)+envelopeHeader > MaxFrame {
		return fmt.Errorf("cluster: frame body %d bytes exceeds MaxFrame", len(body))
	}
	hdr := make([]byte, 4+envelopeHeader, 4+envelopeHeader+len(body))
	binary.BigEndian.PutUint32(hdr[0:4], uint32(envelopeHeader+len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], WireMagic)
	hdr[8] = WireVersion
	hdr[9] = kind
	_, err := w.Write(append(hdr, body...))
	return err
}

// ReadFrame reads one framed envelope, returning its kind and body. It
// rejects bad magic, unknown versions and oversized frames. A length claim
// alone never makes it allocate more than frameChunk bytes (see readBody).
func ReadFrame(r io.Reader) (kind byte, body []byte, err error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < envelopeHeader || n > MaxFrame {
		return 0, nil, fmt.Errorf("cluster: frame length %d out of range", n)
	}
	buf, err := readBody(r, int(n))
	if err != nil {
		return 0, nil, err
	}
	if got := binary.BigEndian.Uint32(buf[0:4]); got != WireMagic {
		return 0, nil, fmt.Errorf("cluster: bad magic %08x", got)
	}
	if buf[4] != WireVersion {
		return 0, nil, fmt.Errorf("cluster: envelope version %d, this build speaks %d", buf[4], WireVersion)
	}
	return buf[5], buf[6:], nil
}

// frameChunk is the largest body ReadFrame allocates up front. Larger
// claimed lengths are read in chunks into a buffer that grows only as
// bytes arrive, so a header that lies about the length costs memory in
// proportion to what the peer sent, not to what it claimed.
const frameChunk = 64 << 10

// readBody reads exactly n body bytes with io.ReadFull's error contract:
// io.EOF if none arrived, io.ErrUnexpectedEOF if some did.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, frameChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(len(buf), n-len(buf)))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// Gossip envelope body: from(4) to(4) sentAt(8) payload. sentAt is the
// sender's wall clock in nanoseconds since the run epoch — all cluster
// processes share one host clock (loopback deployment), so receivers
// compute delivery latency directly.
const gossipHeader = 16

// AppendGossip encodes a data-plane message into an envelope body.
func AppendGossip(dst []byte, m sim.Message) ([]byte, error) {
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.From))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.To))
	dst = binary.BigEndian.AppendUint64(dst, uint64(m.SentAt))
	return core.AppendPayload(dst, m.Payload)
}

// DecodeGossip decodes a data-plane envelope body.
func DecodeGossip(body []byte) (sim.Message, error) {
	if len(body) < gossipHeader {
		return sim.Message{}, fmt.Errorf("cluster: gossip body truncated (%d bytes)", len(body))
	}
	pl, err := core.DecodePayload(body[gossipHeader:])
	if err != nil {
		return sim.Message{}, err
	}
	return sim.Message{
		From:    sim.ProcID(int32(binary.BigEndian.Uint32(body[0:4]))),
		To:      sim.ProcID(int32(binary.BigEndian.Uint32(body[4:8]))),
		SentAt:  sim.Time(int64(binary.BigEndian.Uint64(body[8:16]))),
		Payload: pl,
	}, nil
}

// Control-plane message bodies (JSON).

// Member is one registered node as the registry advertises it.
type Member struct {
	ID          int    `json:"id"`
	Addr        string `json:"addr"`
	MetricsAddr string `json:"metrics_addr,omitempty"`
}

// JoinMsg registers a node.
type JoinMsg struct {
	ID          int    `json:"id"`
	Addr        string `json:"addr"`
	MetricsAddr string `json:"metrics_addr,omitempty"`
}

// JoinOKMsg acknowledges a join: the shared run epoch and the membership
// known so far.
type JoinOKMsg struct {
	EpochUnixNano int64    `json:"epoch_unix_nano"`
	Members       []Member `json:"members"`
}

// HeartbeatMsg carries a node's liveness and credit counters. Sent and
// Received+Drained are the two sides of the cluster-wide credit count the
// driver's quiescence detector balances.
type HeartbeatMsg struct {
	ID        int   `json:"id"`
	Steps     int64 `json:"steps"`
	Sent      int64 `json:"sent"`
	Received  int64 `json:"received"`
	Drained   int64 `json:"drained"`
	OffEdge   int64 `json:"off_edge"`
	Quiescent bool  `json:"quiescent"`
	Crashed   bool  `json:"crashed"`
}

// Run directives carried by heartbeat acks.
const (
	DirectiveRun   = "run"   // keep gossiping
	DirectiveDrain = "drain" // stop stepping, flush, report, deregister
)

// HeartbeatAckMsg is the registry's heartbeat response: the current
// directive and (until the node has seen everyone) the membership.
type HeartbeatAckMsg struct {
	Directive string   `json:"directive"`
	Members   []Member `json:"members,omitempty"`
}

// LeaveMsg deregisters a node.
type LeaveMsg struct {
	ID int `json:"id"`
}
