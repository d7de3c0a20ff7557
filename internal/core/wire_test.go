package core

import (
	"bytes"
	"strings"
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
		"gossip-rumors-vals-n0":       gossipPayload(&Rumors{Set: bitset.New(0), Vals: []uint8{}}, nil, false),
		"pp-rumor":                    ppRumor,
		"pp-request":                  ppRequest,
		"avg":                         &AvgPayload{S: -3.25, W: 0.125},
		"avg-zero":                    &AvgPayload{},
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
	const n = paddingFrameN
	enc := paddingFrame(t)
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
	// Averaging nodes send *AvgPayload; the bare value is not a payload
	// any protocol sends, so it has no encoding.
	if _, err := AppendPayload(nil, AvgPayload{S: 1, W: 1}); err == nil ||
		!strings.Contains(err.Error(), "no wire encoding") {
		t.Errorf("bare AvgPayload value: err = %v, want a no-wire-encoding error", err)
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

// nonCanonicalGossipHeaders are gossip headers an earlier decoder accepted
// and re-encoded as the empty payload 01 01 00 00000000, breaking
// encode∘decode = id.
var nonCanonicalGossipHeaders = []namedBytes{
	{"unknown flag bit", []byte{PayloadWireVersion, payloadKindGossip, 0x10, 0, 0, 0, 0}},
	{"vals without rumors", []byte{PayloadWireVersion, payloadKindGossip, gpFlagVals, 0, 0, 0, 0}},
	{"universe with no bitmap", []byte{PayloadWireVersion, payloadKindGossip, 0, 0, 0, 0, 5}},
}

func TestPayloadWireRejectsNonCanonicalHeaders(t *testing.T) {
	for _, c := range nonCanonicalGossipHeaders {
		if pl, err := DecodePayload(c.b); err == nil {
			t.Errorf("%s: % x decoded to %#v", c.name, c.b, pl)
		}
	}
}

// paddingFrameN is the universe of paddingFrame: two bytes per bitmap, bits
// 5..7 of the second are padding.
const paddingFrameN = 13

// paddingFrame is a canonical gossip frame over paddingFrameN with the
// highest data bit set in the rumor bitmap and in matrix row 4, next to the
// padding bits that TestPayloadWireRejectsPaddingBits and the fuzz seeds set.
func paddingFrame(tb testing.TB) []byte {
	set := bitset.New(paddingFrameN)
	set.Add(paddingFrameN - 1)
	m := bitset.NewMatrix(paddingFrameN)
	m.Set(4, paddingFrameN-1)
	enc, err := AppendPayload(nil, gossipPayload(&Rumors{Set: set}, m, false))
	if err != nil {
		tb.Fatal(err)
	}
	return enc
}

// FuzzDecodePayload feeds DecodePayload arbitrary bytes, as a peer could.
// It must never panic, and every input it accepts must re-encode to exactly
// the same bytes: the encoding is canonical.
func FuzzDecodePayload(f *testing.F) {
	for _, g := range readGoldenWire(f) {
		f.Add(g.b)
	}
	for _, c := range nonCanonicalGossipHeaders {
		f.Add(c.b)
	}
	padded := paddingFrame(f)
	padded[7+1] |= 1 << 7 // a padding bit of the rumor bitmap
	f.Add(padded)
	f.Fuzz(func(t *testing.T, src []byte) {
		pl, err := DecodePayload(src)
		if err != nil {
			return
		}
		enc, err := AppendPayload(nil, pl)
		if err != nil {
			t.Fatalf("decoded payload %#v does not encode: %v", pl, err)
		}
		if !bytes.Equal(enc, src) {
			t.Fatalf("decode then encode changed the bytes\n  in: %x\n out: %x", src, enc)
		}
	})
}

// WirePayloadEquals compares whole payloads: values of any length (a longer
// first operand once panicked), rumor universes, and every matrix bit.
func TestWirePayloadEquals(t *testing.T) {
	rumors := func(n int, vals []uint8) *Rumors {
		s := bitset.New(n)
		s.Add(1)
		return &Rumors{Set: s, Vals: vals}
	}
	matrix := func(n, row, col int) *bitset.Matrix {
		m := bitset.NewMatrix(n)
		m.Set(row, col)
		return m
	}
	cases := []struct {
		name string
		a, b *GossipPayload
		want bool
	}{
		{"equal", gossipPayload(rumors(70, []uint8{1, 2}), matrix(70, 69, 3), true),
			gossipPayload(rumors(70, []uint8{1, 2}), matrix(70, 69, 3), true), true},
		{"longer vals first", gossipPayload(rumors(8, []uint8{1, 2, 3}), nil, false),
			gossipPayload(rumors(8, []uint8{1, 2}), nil, false), false},
		{"shorter vals first", gossipPayload(rumors(8, []uint8{1, 2}), nil, false),
			gossipPayload(rumors(8, []uint8{1, 2, 3}), nil, false), false},
		{"nil and empty vals", gossipPayload(rumors(8, nil), nil, false),
			gossipPayload(rumors(8, []uint8{}), nil, false), false},
		{"rumor universes differ", gossipPayload(rumors(8, nil), nil, false),
			gossipPayload(rumors(9, nil), nil, false), false},
		{"one matrix bit differs", gossipPayload(nil, matrix(70, 69, 3), false),
			gossipPayload(nil, matrix(70, 69, 4), false), false},
		{"matrix universes differ", gossipPayload(nil, bitset.NewMatrix(8), false),
			gossipPayload(nil, bitset.NewMatrix(9), false), false},
		{"matrix on one side", gossipPayload(nil, bitset.NewMatrix(8), false),
			gossipPayload(nil, nil, false), false},
		{"flag differs", gossipPayload(nil, nil, true), gossipPayload(nil, nil, false), false},
	}
	for _, c := range cases {
		if got := WirePayloadEquals(c.a, c.b); got != c.want {
			t.Errorf("%s: WirePayloadEquals = %v, want %v", c.name, got, c.want)
		}
	}
}
