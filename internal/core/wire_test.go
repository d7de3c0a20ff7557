package core

import (
	"testing"

	"repro/internal/bitset"
)

// gossipPayload assembles a GossipPayload from parts, as a decoder would.
func gossipPayload(rumors *Rumors, informed *bitset.Matrix, flag bool) *GossipPayload {
	return &GossipPayload{Rumors: rumors, Informed: informedSnapshot{m: informed}, Flag: flag}
}

// wirePayloads enumerates one representative of every encodable shape.
func wirePayloads() map[string]interface{} {
	set := bitset.New(12)
	set.Add(0)
	set.Add(3)
	set.Add(11)
	vals := make([]uint8, 12)
	vals[0], vals[3], vals[11] = 1, 0, 1
	m := bitset.NewMatrix(12)
	m.Set(0, 3)
	m.Set(11, 11)
	m.Set(7, 2)
	full := bitset.New(12)
	for i := 0; i < 12; i++ {
		full.Add(i)
	}
	return map[string]interface{}{
		"gossip-rumors-vals-informed": gossipPayload(&Rumors{Set: set, Vals: vals}, m, false),
		"gossip-rumors-only":          gossipPayload(&Rumors{Set: full}, nil, false),
		"gossip-informed-flag":        gossipPayload(nil, m, true),
		"gossip-empty":                gossipPayload(nil, nil, false),
		"pp-rumor":                    ppRumor,
		"pp-request":                  ppRequest,
		"avg":                         AvgPayload{S: -3.25, W: 0.125},
		"avg-zero":                    AvgPayload{},
	}
}

func TestPayloadWireRoundTrip(t *testing.T) {
	for name, pl := range wirePayloads() {
		enc, err := AppendPayload(nil, pl)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		dec, err := DecodePayload(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !WirePayloadEquals(pl, dec) {
			t.Errorf("%s: round-trip mismatch: sent %#v, got %#v", name, pl, dec)
		}
	}
}

// Every strict prefix of a valid encoding must be rejected, never crash,
// and never decode to a payload.
func TestPayloadWireTruncation(t *testing.T) {
	for name, pl := range wirePayloads() {
		enc, err := AppendPayload(nil, pl)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < len(enc); k++ {
			if _, err := DecodePayload(enc[:k]); err == nil {
				t.Errorf("%s: truncation to %d/%d bytes decoded cleanly", name, k, len(enc))
			}
		}
		if _, err := DecodePayload(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Errorf("%s: trailing byte decoded cleanly", name)
		}
	}
}

func TestPayloadWireRejectsCorruption(t *testing.T) {
	enc, err := AppendPayload(nil, gossipPayload(&Rumors{Set: bitset.New(4)}, nil, false))
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), enc...)
	bad[0] = PayloadWireVersion + 1
	if _, err := DecodePayload(bad); err == nil {
		t.Error("future wire version accepted")
	}

	bad = append([]byte(nil), enc...)
	bad[1] = 0x7f
	if _, err := DecodePayload(bad); err == nil {
		t.Error("unknown payload kind accepted")
	}

	// A corrupt universe length must not translate into a giant allocation.
	huge := []byte{PayloadWireVersion, payloadKindGossip, gpFlagRumors, 0xff, 0xff, 0xff, 0xff}
	if _, err := DecodePayload(huge); err == nil {
		t.Error("out-of-range universe accepted")
	}

	if _, err := DecodePayload([]byte{PayloadWireVersion, payloadKindPP, 9}); err == nil {
		t.Error("unknown push-pull payload value accepted")
	}
}

// A bitmap over a universe that is not a multiple of 8 has unused high
// bits in its last byte (per row, for the informed matrix). A set padding
// bit has no meaning, so decoding it would break encode∘decode = id: the
// decoder must reject it.
func TestPayloadWireRejectsPaddingBits(t *testing.T) {
	const n = 13 // two bytes per bitmap, bits 5..7 of the second are padding
	set := bitset.New(n)
	set.Add(12)
	m := bitset.NewMatrix(n)
	m.Set(4, 12)
	enc, err := AppendPayload(nil, gossipPayload(&Rumors{Set: set}, m, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayload(enc); err != nil {
		t.Fatalf("canonical frame rejected: %v", err)
	}
	const header, rowBytes = 7, 2 // version, kind, flags, 4-byte universe
	padded := map[string]int{
		"rumor bitmap":      header + rowBytes - 1,
		"first matrix row":  header + rowBytes + rowBytes - 1,
		"middle matrix row": header + rowBytes + 5*rowBytes - 1,
		"last matrix row":   header + rowBytes + n*rowBytes - 1,
	}
	for where, at := range padded {
		for bit := n % 8; bit < 8; bit++ {
			bad := append([]byte(nil), enc...)
			bad[at] |= 1 << bit
			if _, err := DecodePayload(bad); err == nil {
				t.Errorf("%s: padding bit %d accepted", where, bit)
			}
		}
	}
}

func TestPayloadWireRejectsUnsupported(t *testing.T) {
	if _, err := AppendPayload(nil, struct{ X int }{1}); err == nil {
		t.Error("arbitrary payload type encoded")
	}
	set := bitset.New(8)
	m := bitset.NewMatrix(16)
	if _, err := AppendPayload(nil, gossipPayload(&Rumors{Set: set}, m, false)); err == nil {
		t.Error("mismatched rumor/informed universes encoded")
	}
}

// Decoded payloads must be fully caller-owned: mutating them must not
// alias the encoder's inputs.
func TestPayloadWireDecodeOwnsStorage(t *testing.T) {
	set := bitset.New(8)
	set.Add(2)
	orig := gossipPayload(&Rumors{Set: set, Vals: make([]uint8, 8)}, nil, false)
	enc, err := AppendPayload(nil, orig)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodePayload(enc)
	if err != nil {
		t.Fatal(err)
	}
	gp := dec.(*GossipPayload)
	gp.Rumors.Set.Add(5)
	gp.Rumors.Vals[0] = 9
	if set.Test(5) || orig.Rumors.Vals[0] == 9 {
		t.Error("decoded payload aliases encoder storage")
	}
}
