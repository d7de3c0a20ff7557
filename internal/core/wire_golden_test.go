package core

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/sim"
)

// goldenWireFile pins the wire format (PayloadWireVersion 1) byte for byte.
// It was written by the bit-at-a-time codec that preceded the word-level
// one, so it holds any two codecs to the same layout: round-trip tests alone
// would pass if encoder and decoder changed the layout together. Never
// regenerate it for a codec change; a format change bumps PayloadWireVersion
// and adds a wire-v2 file next to it.
const goldenWireFile = "testdata/wire-v1.golden"

// goldenUniverses cover a bitmap with padding bits (1, 12, 13), one exact
// word (64), a word plus one bit (65) and a multi-word tail (130).
var goldenUniverses = []int{1, 12, 13, 64, 65, 130}

type namedPayload struct {
	name string
	pl   sim.Payload
}

// goldenWirePayloads lists the payloads of goldenWireFile in file order. The
// bit patterns are fixed arithmetic, not random draws, and always include the
// last index n-1 so the highest data bit sits next to the padding.
func goldenWirePayloads() []namedPayload {
	var out []namedPayload
	for _, n := range goldenUniverses {
		set := bitset.New(n)
		vals := make([]uint8, n)
		for i := 0; i < n; i++ {
			if (i*7+3)%5 < 2 || i == n-1 {
				set.Add(i)
				vals[i] = uint8(i*37 + 1)
			}
		}
		full := bitset.New(n)
		full.Fill()
		m := bitset.NewMatrix(n)
		for r := 0; r < n; r++ {
			for c := 0; c < n; c++ {
				if (r*31+c*17)%7 == 0 || (r == n-1 && c == n-1) {
					m.Set(r, c)
				}
			}
		}
		out = append(out,
			namedPayload{fmt.Sprintf("gossip-rumors-vals-informed-n%d", n),
				gossipPayload(&Rumors{Set: set, Vals: vals}, m, false)},
			namedPayload{fmt.Sprintf("gossip-rumors-only-n%d", n),
				gossipPayload(&Rumors{Set: full}, nil, false)},
			namedPayload{fmt.Sprintf("gossip-informed-flag-n%d", n),
				gossipPayload(nil, m, true)},
		)
	}
	return append(out,
		namedPayload{"gossip-empty", gossipPayload(nil, nil, false)},
		namedPayload{"pp-rumor", ppRumor},
		namedPayload{"pp-request", ppRequest},
		namedPayload{"avg", &AvgPayload{S: -3.25, W: 0.125}},
	)
}

// readGoldenWire parses goldenWireFile: one "name hex" line per payload.
func readGoldenWire(t testing.TB) []namedBytes {
	t.Helper()
	f, err := os.Open(goldenWireFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []namedBytes
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenWireFile, sc.Text())
		}
		b, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("%s: %s: %v", goldenWireFile, name, err)
		}
		out = append(out, namedBytes{name, b})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

type namedBytes struct {
	name string
	b    []byte
}

// TestPayloadWireGolden: encoding reproduces the committed bytes exactly,
// and decoding them gives the payload back.
func TestPayloadWireGolden(t *testing.T) {
	golden := readGoldenWire(t)
	payloads := goldenWirePayloads()
	if len(golden) != len(payloads) {
		t.Fatalf("%s has %d vectors, want %d", goldenWireFile, len(golden), len(payloads))
	}
	for i, p := range payloads {
		g := golden[i]
		if g.name != p.name {
			t.Fatalf("vector %d is %q, want %q", i, g.name, p.name)
		}
		enc, err := AppendPayload(nil, p.pl)
		if err != nil {
			t.Fatalf("%s: encode: %v", p.name, err)
		}
		if !bytes.Equal(enc, g.b) {
			t.Errorf("%s: encoding differs from %s\n got: %x\nwant: %x", p.name, goldenWireFile, enc, g.b)
		}
		dec, err := DecodePayload(g.b)
		if err != nil {
			t.Fatalf("%s: decode: %v", p.name, err)
		}
		if !WirePayloadEquals(p.pl, dec) {
			t.Errorf("%s: golden bytes decode to %#v", p.name, dec)
		}
	}
}
