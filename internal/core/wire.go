package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/sim"
)

// Payload wire codec for the live networked cluster (internal/cluster): a
// compact, versioned binary encoding of every payload family the gossip
// protocols in this package send. The simulator never serializes — payloads
// cross goroutines as shared copy-on-write snapshots — but a real TCP
// transport needs bytes, and the encoding is part of the cluster's message
// envelope, so it is versioned independently of any Go representation.
//
// Decoded payloads are always unpooled: the receiving process owns fresh
// storage and the Releasable refcount contract does not cross the wire.
const (
	// PayloadWireVersion is bumped on any incompatible encoding change;
	// decoders reject versions they do not speak.
	PayloadWireVersion = 1

	payloadKindGossip  = 1 // *GossipPayload (ears/sears/tears/trivial/naive, sync baselines)
	payloadKindPP      = 2 // ppPayload (push/pull/push-pull singletons)
	payloadKindAverage = 3 // *AvgPayload (sum-weight mass)
)

// payloadMaxN bounds the universe size a decoder will materialize: a
// GossipPayload allocates O(n) (plus O(n²) bits with an informed list), so
// a corrupt or hostile length field must not translate into an unbounded
// allocation.
const payloadMaxN = 1 << 20

// gossip payload header flag bits.
const (
	gpFlagTears    = 1 << 0 // GossipPayload.Flag (the tears ↑ marker)
	gpFlagRumors   = 1 << 1 // a rumor set follows
	gpFlagVals     = 1 << 2 // the rumor set carries values
	gpFlagInformed = 1 << 3 // an informed-list matrix follows

	gpFlagsKnown = gpFlagTears | gpFlagRumors | gpFlagVals | gpFlagInformed
)

// AppendPayload appends the versioned binary encoding of pl to dst and
// returns the extended slice. Supported payloads are the three families
// this package's protocols send; anything else (e.g. the consensus layer's
// buffered payloads) is an error — the live cluster's data plane carries
// gossip only.
func AppendPayload(dst []byte, pl sim.Payload) ([]byte, error) {
	switch p := pl.(type) {
	case *GossipPayload:
		dst = append(dst, PayloadWireVersion, payloadKindGossip)
		var flags byte
		if p.Flag {
			flags |= gpFlagTears
		}
		n := 0
		if p.Rumors != nil {
			flags |= gpFlagRumors
			n = p.Rumors.Set.Universe()
			if p.Rumors.Vals != nil {
				flags |= gpFlagVals
			}
		}
		if p.Informed.m != nil {
			flags |= gpFlagInformed
			if n == 0 {
				n = p.Informed.m.Universe()
			} else if p.Informed.m.Universe() != n {
				return nil, fmt.Errorf("core: payload universes disagree: rumors %d, informed %d",
					n, p.Informed.m.Universe())
			}
		}
		dst = append(dst, flags)
		dst = binary.BigEndian.AppendUint32(dst, uint32(n))
		if flags&gpFlagRumors != 0 {
			dst = p.Rumors.Set.AppendBitmap(dst)
			dst = append(dst, p.Rumors.Vals...)
		}
		if flags&gpFlagInformed != 0 {
			dst = p.Informed.m.AppendBitmap(dst)
		}
		return dst, nil
	case ppPayload:
		return append(dst, PayloadWireVersion, payloadKindPP, byte(p)), nil
	case *AvgPayload:
		dst = append(dst, PayloadWireVersion, payloadKindAverage)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.S))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.W))
		return dst, nil
	default:
		return nil, fmt.Errorf("core: payload type %T has no wire encoding", pl)
	}
}

// DecodePayload decodes one payload encoded by AppendPayload. The returned
// payload is unpooled and fully owned by the caller.
func DecodePayload(src []byte) (sim.Payload, error) {
	if len(src) < 2 {
		return nil, fmt.Errorf("core: payload truncated (%d bytes)", len(src))
	}
	if src[0] != PayloadWireVersion {
		return nil, fmt.Errorf("core: payload wire version %d, this build speaks %d",
			src[0], PayloadWireVersion)
	}
	kind, body := src[1], src[2:]
	switch kind {
	case payloadKindGossip:
		if len(body) < 5 {
			return nil, fmt.Errorf("core: gossip payload header truncated")
		}
		flags := body[0]
		n := int(binary.BigEndian.Uint32(body[1:5]))
		if n < 0 || n > payloadMaxN {
			return nil, fmt.Errorf("core: gossip payload universe %d out of range", n)
		}
		// Reject every header AppendPayload cannot produce, so that
		// decoding stays the exact inverse of encoding.
		switch {
		case flags&^gpFlagsKnown != 0:
			return nil, fmt.Errorf("core: gossip payload sets unknown flag bits %#x", flags&^gpFlagsKnown)
		case flags&gpFlagVals != 0 && flags&gpFlagRumors == 0:
			return nil, fmt.Errorf("core: gossip payload carries values without a rumor set")
		case n != 0 && flags&(gpFlagRumors|gpFlagInformed) == 0:
			return nil, fmt.Errorf("core: gossip payload declares universe %d but carries no bitmap", n)
		}
		body = body[5:]
		pl := &GossipPayload{Flag: flags&gpFlagTears != 0}
		if flags&gpFlagRumors != 0 {
			nb := bitset.BitmapLen(n)
			if len(body) < nb {
				return nil, fmt.Errorf("core: rumor bitmap truncated (%d of %d bytes)", len(body), nb)
			}
			set := bitset.New(n)
			if err := set.LoadBitmap(body[:nb]); err != nil {
				return nil, fmt.Errorf("core: rumor bitmap: %w", err)
			}
			body = body[nb:]
			pl.Rumors = &Rumors{Set: set}
			if flags&gpFlagVals != 0 {
				if len(body) < n {
					return nil, fmt.Errorf("core: gossip payload values truncated")
				}
				pl.Rumors.Vals = make([]uint8, n)
				body = body[copy(pl.Rumors.Vals, body):]
			}
		}
		if flags&gpFlagInformed != 0 {
			need := n * bitset.BitmapLen(n)
			if len(body) < need {
				return nil, fmt.Errorf("core: informed matrix truncated (%d of %d bytes)", len(body), need)
			}
			m := bitset.NewMatrix(n)
			if err := m.LoadBitmap(body[:need]); err != nil {
				return nil, fmt.Errorf("core: informed matrix: %w", err)
			}
			body = body[need:]
			pl.Informed = informedSnapshot{m: m}
		}
		if len(body) != 0 {
			return nil, fmt.Errorf("core: gossip payload has %d trailing bytes", len(body))
		}
		return pl, nil
	case payloadKindPP:
		if len(body) != 1 {
			return nil, fmt.Errorf("core: push-pull payload has %d body bytes, want 1", len(body))
		}
		p := ppPayload(body[0])
		if p != ppRumor && p != ppRequest {
			return nil, fmt.Errorf("core: unknown push-pull payload %d", p)
		}
		return p, nil
	case payloadKindAverage:
		if len(body) != 16 {
			return nil, fmt.Errorf("core: averaging payload has %d body bytes, want 16", len(body))
		}
		return &AvgPayload{
			S: math.Float64frombits(binary.BigEndian.Uint64(body[:8])),
			W: math.Float64frombits(binary.BigEndian.Uint64(body[8:16])),
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown payload kind %d", kind)
	}
}

// WirePayloadEquals reports deep equality of two payloads, ignoring pool
// bookkeeping; codec tests use it to verify round-trips.
func WirePayloadEquals(a, b sim.Payload) bool {
	switch pa := a.(type) {
	case *GossipPayload:
		pb, ok := b.(*GossipPayload)
		if !ok || pa.Flag != pb.Flag {
			return false
		}
		switch {
		case (pa.Rumors == nil) != (pb.Rumors == nil):
			return false
		case pa.Rumors != nil:
			ra, rb := pa.Rumors, pb.Rumors
			if ra.Set.Universe() != rb.Set.Universe() || !ra.Set.Equal(rb.Set) ||
				(ra.Vals == nil) != (rb.Vals == nil) || !bytes.Equal(ra.Vals, rb.Vals) {
				return false
			}
		}
		if pa.Informed.m == nil || pb.Informed.m == nil {
			return pa.Informed.m == pb.Informed.m
		}
		return pa.Informed.m.Equal(pb.Informed.m)
	case ppPayload:
		pb, ok := b.(ppPayload)
		return ok && pa == pb
	case *AvgPayload:
		pb, ok := b.(*AvgPayload)
		return ok && math.Float64bits(pa.S) == math.Float64bits(pb.S) &&
			math.Float64bits(pa.W) == math.Float64bits(pb.W)
	}
	return false
}
