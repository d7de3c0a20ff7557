package core

import (
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
	payloadKindAverage = 3 // AvgPayload (sum-weight mass)
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
			dst = appendSetBitmap(dst, p.Rumors.Set, n)
			if flags&gpFlagVals != 0 {
				dst = append(dst, p.Rumors.Vals...)
			}
		}
		if flags&gpFlagInformed != 0 {
			dst = appendMatrixBitmap(dst, p.Informed.m, n)
		}
		return dst, nil
	case ppPayload:
		return append(dst, PayloadWireVersion, payloadKindPP, byte(p)), nil
	case AvgPayload:
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
		body = body[5:]
		pl := &GossipPayload{Flag: flags&gpFlagTears != 0}
		if flags&gpFlagRumors != 0 {
			set, rest, err := decodeSetBitmap(body, n)
			if err != nil {
				return nil, err
			}
			body = rest
			pl.Rumors = &Rumors{Set: set}
			if flags&gpFlagVals != 0 {
				if len(body) < n {
					return nil, fmt.Errorf("core: gossip payload values truncated")
				}
				pl.Rumors.Vals = append([]uint8(nil), body[:n]...)
				body = body[n:]
			}
		}
		if flags&gpFlagInformed != 0 {
			m, rest, err := decodeMatrixBitmap(body, n)
			if err != nil {
				return nil, err
			}
			body = rest
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
		return AvgPayload{
			S: math.Float64frombits(binary.BigEndian.Uint64(body[:8])),
			W: math.Float64frombits(binary.BigEndian.Uint64(body[8:16])),
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown payload kind %d", kind)
	}
}

// appendSetBitmap appends a dense little-endian-bit bitmap of set over
// universe n: bit i of byte i/8 marks membership of i.
func appendSetBitmap(dst []byte, s *bitset.Set, n int) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, (n+7)/8)...)
	s.ForEach(func(i int) bool {
		dst[start+i/8] |= 1 << (i % 8)
		return true
	})
	return dst
}

// padMask selects the unused high bits of the last byte of an n-bit
// bitmap (0 when n is a multiple of 8). A canonical encoding leaves them
// zero, and decoders reject anything else so decoding stays the exact
// inverse of encoding.
func padMask(n int) byte {
	if n%8 == 0 {
		return 0
	}
	return ^byte(0) << (n % 8)
}

func decodeSetBitmap(src []byte, n int) (*bitset.Set, []byte, error) {
	nb := (n + 7) / 8
	if len(src) < nb {
		return nil, nil, fmt.Errorf("core: rumor bitmap truncated (%d of %d bytes)", len(src), nb)
	}
	if pad := padMask(n); pad != 0 && src[nb-1]&pad != 0 {
		return nil, nil, fmt.Errorf("core: rumor bitmap sets padding bits beyond universe %d", n)
	}
	s := bitset.New(n)
	for i := 0; i < n; i++ {
		if src[i/8]&(1<<(i%8)) != 0 {
			s.Add(i)
		}
	}
	return s, src[nb:], nil
}

// appendMatrixBitmap appends the n×n informed-list matrix as n row bitmaps.
func appendMatrixBitmap(dst []byte, m *bitset.Matrix, n int) []byte {
	rowBytes := (n + 7) / 8
	start := len(dst)
	dst = append(dst, make([]byte, n*rowBytes)...)
	for row := 0; row < n; row++ {
		base := start + row*rowBytes
		for col := 0; col < n; col++ {
			if m.Test(row, col) {
				dst[base+col/8] |= 1 << (col % 8)
			}
		}
	}
	return dst
}

func decodeMatrixBitmap(src []byte, n int) (*bitset.Matrix, []byte, error) {
	rowBytes := (n + 7) / 8
	need := n * rowBytes
	if len(src) < need {
		return nil, nil, fmt.Errorf("core: informed matrix truncated (%d of %d bytes)", len(src), need)
	}
	pad := padMask(n)
	m := bitset.NewMatrix(n)
	for row := 0; row < n; row++ {
		base := row * rowBytes
		if pad != 0 && src[base+rowBytes-1]&pad != 0 {
			return nil, nil, fmt.Errorf("core: informed matrix row %d sets padding bits beyond universe %d", row, n)
		}
		for col := 0; col < n; col++ {
			if src[base+col/8]&(1<<(col%8)) != 0 {
				m.Set(row, col)
			}
		}
	}
	return m, src[need:], nil
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
			if !pa.Rumors.Set.Equal(pb.Rumors.Set) {
				return false
			}
			if (pa.Rumors.Vals == nil) != (pb.Rumors.Vals == nil) {
				return false
			}
			for i := range pa.Rumors.Vals {
				if pa.Rumors.Vals[i] != pb.Rumors.Vals[i] {
					return false
				}
			}
		}
		if (pa.Informed.m == nil) != (pb.Informed.m == nil) {
			return false
		}
		if pa.Informed.m != nil {
			n := pa.Informed.m.Universe()
			if n != pb.Informed.m.Universe() {
				return false
			}
			for r := 0; r < n; r++ {
				for c := 0; c < n; c++ {
					if pa.Informed.m.Test(r, c) != pb.Informed.m.Test(r, c) {
						return false
					}
				}
			}
		}
		return true
	case ppPayload:
		pb, ok := b.(ppPayload)
		return ok && pa == pb
	case AvgPayload:
		pb, ok := b.(AvgPayload)
		return ok && math.Float64bits(pa.S) == math.Float64bits(pb.S) &&
			math.Float64bits(pa.W) == math.Float64bits(pb.W)
	}
	return false
}
