package cluster_test

import (
	"bufio"
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

// frameReaders are the two ways ReadFrame reads a frame length: an
// io.ByteReader a byte at a time, any other reader through io.ReadFull.
var frameReaders = []struct {
	name string
	wrap func(*bytes.Reader) io.Reader
}{
	{"bytereader", func(r *bytes.Reader) io.Reader { return r }},
	{"reader", func(r *bytes.Reader) io.Reader { return struct{ io.Reader }{r} }},
}

func TestFrameRejectsCorruption(t *testing.T) {
	for _, fr := range frameReaders {
		t.Run(fr.name, func(t *testing.T) {
			read := func(frame []byte) error {
				_, _, err := cluster.ReadFrame(fr.wrap(bytes.NewReader(frame)))
				return err
			}
			frame := func() []byte {
				var buf bytes.Buffer
				if err := cluster.WriteFrame(&buf, cluster.KindHeartbeat, []byte("x")); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}

			badMagic := frame()
			badMagic[4] ^= 0xff
			if read(badMagic) == nil {
				t.Error("bad magic accepted")
			}

			badVersion := frame()
			badVersion[8] = cluster.WireVersion + 1
			if read(badVersion) == nil {
				t.Error("future envelope version accepted")
			}

			oversize := frame()
			binary.BigEndian.PutUint32(oversize[0:4], cluster.MaxFrame+1)
			if read(oversize) == nil {
				t.Error("oversized frame length accepted")
			}

			undersize := frame()
			binary.BigEndian.PutUint32(undersize[0:4], 2) // shorter than the envelope header
			if read(undersize) == nil {
				t.Error("undersized frame length accepted")
			}

			truncated := frame()
			if read(truncated[:len(truncated)-1]) == nil {
				t.Error("truncated frame accepted")
			}
			if err := read(truncated[:2]); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("length cut after 2 bytes: err = %v, want %v", err, io.ErrUnexpectedEOF)
			}
			if err := read(nil); !errors.Is(err, io.EOF) {
				t.Errorf("empty stream: err = %v, want %v", err, io.EOF)
			}
		})
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
	for _, fr := range frameReaders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := cluster.ReadFrame(fr.wrap(bytes.NewReader(frame)))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: lying frame: err = %v, want %v", fr.name, err, io.ErrUnexpectedEOF)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("%s: lying frame length made ReadFrame allocate %d bytes for 14 received", fr.name, got)
		}
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

// errClass names the io.ReadFull error contract's classes.
func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case err == io.EOF:
		return "EOF"
	case err == io.ErrUnexpectedEOF:
		return "UnexpectedEOF"
	}
	return "invalid"
}

// frameWriters re-frame through both of WriteFrame's paths: built in a
// bytes.Buffer with room for the frame, and one copied frame into a plain
// writer. A 16-byte bufio.Writer takes the first path for bodies of at
// most 2 bytes and the second for longer ones.
func frameWriters(kind byte, body []byte) (map[string][]byte, error) {
	out := make(map[string][]byte)
	var direct bytes.Buffer
	direct.Grow(len(body) + 16)
	if err := cluster.WriteFrame(&direct, kind, body); err != nil {
		return nil, err
	}
	out["bytes.Buffer"] = direct.Bytes()
	var buffered bytes.Buffer
	bw := bufio.NewWriterSize(&buffered, 16)
	if err := cluster.WriteFrame(bw, kind, body); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	out["bufio.Writer(16)"] = buffered.Bytes()
	var plain bytes.Buffer
	if err := cluster.WriteFrame(struct{ io.Writer }{&plain}, kind, body); err != nil {
		return nil, err
	}
	out["plain writer"] = plain.Bytes()
	return out, nil
}

// FuzzReadGossipFrame feeds the receive path (ReadFrame, then DecodeGossip
// for a gossip frame) arbitrary bytes, as a peer's socket could. It must
// never panic, both of ReadFrame's length paths must agree on kind, body,
// bytes consumed and error class, and every frame it accepts must
// re-encode to exactly the bytes it consumed through each of WriteFrame's
// paths.
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
	f.Add([]byte{0, 0}) // a length cut short

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		kind, body, err := cluster.ReadFrame(frameReaders[0].wrap(r))
		plain := bytes.NewReader(data)
		kind2, body2, err2 := cluster.ReadFrame(frameReaders[1].wrap(plain))
		if errClass(err) != errClass(err2) || kind != kind2 || !bytes.Equal(body, body2) || r.Len() != plain.Len() {
			t.Fatalf("length paths disagree: byte reader (%#x, %x, %v, %d left), plain reader (%#x, %x, %v, %d left)",
				kind, body, err, r.Len(), kind2, body2, err2, plain.Len())
		}
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
		again, err := frameWriters(kind, body)
		if err != nil {
			t.Fatalf("accepted frame does not re-frame: %v", err)
		}
		for name, out := range again {
			if !bytes.Equal(out, frame) {
				t.Fatalf("read then write through %s changed the frame\n  in: %x\n out: %x", name, frame, out)
			}
		}
	})
}
