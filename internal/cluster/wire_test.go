package cluster_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct {
		kind byte
		body []byte
	}{
		{cluster.KindGossip, []byte("payload")},
		{cluster.KindJoin, []byte(`{"id":3}`)},
		{cluster.KindLeaveOK, nil},
		{cluster.KindGossip, bytes.Repeat([]byte{0xa5}, 200<<10)}, // read in growing chunks
	}
	var buf bytes.Buffer
	for _, c := range cases {
		if err := cluster.WriteFrame(&buf, c.kind, c.body); err != nil {
			t.Fatalf("write kind %#x: %v", c.kind, err)
		}
	}
	for _, c := range cases {
		kind, body, err := cluster.ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read kind %#x: %v", c.kind, err)
		}
		if kind != c.kind || !bytes.Equal(body, c.body) {
			t.Errorf("frame (%#x, %q) read back as (%#x, %q)", c.kind, c.body, kind, body)
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := func() []byte {
		var buf bytes.Buffer
		if err := cluster.WriteFrame(&buf, cluster.KindHeartbeat, []byte("x")); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	badMagic := frame()
	badMagic[4] ^= 0xff
	if _, _, err := cluster.ReadFrame(bytes.NewReader(badMagic)); err == nil {
		t.Error("bad magic accepted")
	}

	badVersion := frame()
	badVersion[8] = cluster.WireVersion + 1
	if _, _, err := cluster.ReadFrame(bytes.NewReader(badVersion)); err == nil {
		t.Error("future envelope version accepted")
	}

	oversize := frame()
	binary.BigEndian.PutUint32(oversize[0:4], cluster.MaxFrame+1)
	if _, _, err := cluster.ReadFrame(bytes.NewReader(oversize)); err == nil {
		t.Error("oversized frame length accepted")
	}

	undersize := frame()
	binary.BigEndian.PutUint32(undersize[0:4], 2) // shorter than the envelope header
	if _, _, err := cluster.ReadFrame(bytes.NewReader(undersize)); err == nil {
		t.Error("undersized frame length accepted")
	}

	truncated := frame()
	if _, _, err := cluster.ReadFrame(bytes.NewReader(truncated[:len(truncated)-1])); err == nil {
		t.Error("truncated frame accepted")
	}

	if err := cluster.WriteFrame(&bytes.Buffer{}, cluster.KindGossip, make([]byte, cluster.MaxFrame)); err == nil {
		t.Error("MaxFrame-exceeding body written")
	}
}

// TestReadFrameLyingLength sends a header claiming MaxFrame, then 10 body
// bytes and EOF: the reader must fail having allocated in proportion to
// the bytes received, not the 16 MiB claimed.
func TestReadFrameLyingLength(t *testing.T) {
	frame := binary.BigEndian.AppendUint32(nil, cluster.MaxFrame)
	frame = append(frame, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := cluster.ReadFrame(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("lying frame: err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("lying frame length made ReadFrame allocate %d bytes for 14 received", got)
	}
}

func TestGossipEnvelopeRoundTrip(t *testing.T) {
	want := sim.Message{
		From:    3,
		To:      11,
		SentAt:  1_234_567_890,
		Payload: &core.AvgPayload{S: 2.5, W: 0.5},
	}
	body, err := cluster.AppendGossip(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.DecodeGossip(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != want.From || got.To != want.To || got.SentAt != want.SentAt {
		t.Errorf("header round-trip: got %+v, want %+v", got, want)
	}
	if !core.WirePayloadEquals(got.Payload, want.Payload) {
		t.Errorf("payload round-trip: got %#v, want %#v", got.Payload, want.Payload)
	}

	if _, err := cluster.DecodeGossip(body[:10]); err == nil {
		t.Error("truncated gossip body accepted")
	}
	if _, err := cluster.AppendGossip(nil, sim.Message{Payload: struct{}{}}); err == nil {
		t.Error("unencodable payload accepted")
	}
}

// gossipFrame wraps an encoded payload in a gossip envelope and a frame.
func gossipFrame(tb testing.TB, payload []byte) []byte {
	body := binary.BigEndian.AppendUint32(nil, 3)
	body = binary.BigEndian.AppendUint32(body, 11)
	body = binary.BigEndian.AppendUint64(body, 1_234_567_890)
	var buf bytes.Buffer
	if err := cluster.WriteFrame(&buf, cluster.KindGossip, append(body, payload...)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// goldenPayloads returns the payload codec's golden vectors, the hex field
// of each "name hex" line.
func goldenPayloads(tb testing.TB) [][]byte {
	text, err := os.ReadFile("../core/testdata/wire-v1.golden")
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Split(strings.TrimSpace(string(text)), "\n") {
		b, err := hex.DecodeString(line[strings.IndexByte(line, ' ')+1:])
		if err != nil {
			tb.Fatalf("golden %q: %v", line, err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzReadGossipFrame feeds the receive path (ReadFrame, then DecodeGossip
// for a gossip frame) arbitrary bytes, as a peer's socket could. It must
// never panic, and every frame it accepts must re-encode to exactly the
// bytes it consumed.
func FuzzReadGossipFrame(f *testing.F) {
	for _, g := range goldenPayloads(f) {
		f.Add(gossipFrame(f, g))
	}
	// Non-canonical gossip headers and a rumor bitmap with a padding bit
	// set: the payload decoder must reject each.
	f.Add(gossipFrame(f, []byte{1, 1, 0x10, 0, 0, 0, 0}))
	f.Add(gossipFrame(f, []byte{1, 1, 0x04, 0, 0, 0, 0}))
	f.Add(gossipFrame(f, []byte{1, 1, 0x00, 0, 0, 0, 5}))
	f.Add(gossipFrame(f, []byte{1, 1, 0x02, 0, 0, 0, 13, 0x00, 0x80}))
	var ctl bytes.Buffer
	if err := cluster.WriteFrame(&ctl, cluster.KindJoin, []byte(`{"id":3}`)); err != nil {
		f.Fatal(err)
	}
	f.Add(ctl.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		kind, body, err := cluster.ReadFrame(r)
		if err != nil {
			return
		}
		frame := data[:len(data)-r.Len()]
		if kind == cluster.KindGossip {
			m, err := cluster.DecodeGossip(body)
			if err != nil {
				return
			}
			if body, err = cluster.AppendGossip(nil, m); err != nil {
				t.Fatalf("decoded message %+v does not encode: %v", m, err)
			}
		}
		var again bytes.Buffer
		if err := cluster.WriteFrame(&again, kind, body); err != nil {
			t.Fatalf("accepted frame does not re-frame: %v", err)
		}
		if !bytes.Equal(again.Bytes(), frame) {
			t.Fatalf("read then write changed the frame\n  in: %x\n out: %x", frame, again.Bytes())
		}
	})
}
