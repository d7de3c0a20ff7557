package cluster_test

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// sendLog keeps the first limit messages a run sends.
type sendLog struct {
	sim.NopTracer
	limit int
	msgs  []sim.Message
}

func (l *sendLog) OnSend(m sim.Message) {
	if len(l.msgs) < l.limit {
		l.msgs = append(l.msgs, m)
	}
}

// captureSends returns the first limit messages of an unpooled run of
// proto at n (seed 1, standard adversary, at most 50 steps), so each
// payload stays valid after its send.
func captureSends(tb testing.TB, proto string, n, limit int) []sim.Message {
	tb.Helper()
	pc, err := assemble.Build(assemble.Run{
		Protocol: proto, N: n, D: 2, Delta: 2, Seed: 1, MaxSteps: 50,
		Gossip: core.Params{NoPool: true}, Preset: adversary.PresetStandard,
	})
	if err != nil {
		tb.Fatal(err)
	}
	w, err := sim.NewWorld(pc.Config, pc.Nodes, pc.Adversary)
	if err != nil {
		tb.Fatal(err)
	}
	log := &sendLog{limit: limit}
	w.SetTracer(log)
	w.Run(nil) // a run cut at MaxSteps reports it; only its first sends matter
	if len(log.msgs) < limit {
		tb.Fatalf("%s n=%d sent %d messages, need %d", proto, n, len(log.msgs), limit)
	}
	return log.msgs
}

// TestFrameAllocs pins the frame path's allocations: WriteFrame makes
// none into a writer with room for the frame, and ReadFrame makes one,
// the body it returns.
func TestFrameAllocs(t *testing.T) {
	for _, size := range []int{20, 8300} {
		body := bytes.Repeat([]byte{0x5a}, size)
		var buf bytes.Buffer
		if got := testing.AllocsPerRun(100, func() {
			buf.Reset() // as Transport.Send does
			if err := cluster.WriteFrame(&buf, cluster.KindGossip, body); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("WriteFrame of %d bytes into a bytes.Buffer: %v allocations, want 0", size, got)
		}
	}
	small := make([]byte, 20)
	bw := bufio.NewWriter(io.Discard)
	if got := testing.AllocsPerRun(100, func() {
		if err := cluster.WriteFrame(bw, cluster.KindGossip, small); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("WriteFrame of 20 bytes into a bufio.Writer: %v allocations, want 0", got)
	}

	const runs = 100
	var stream bytes.Buffer
	for i := 0; i < 2*(runs+1); i++ { // AllocsPerRun adds one warm-up run
		if err := cluster.WriteFrame(&stream, cluster.KindGossip, make([]byte, 20)); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(stream.Bytes()[:stream.Len()/2]))
	for name, r := range map[string]io.Reader{"bytes.Buffer": &stream, "bufio.Reader": br} {
		if got := testing.AllocsPerRun(runs, func() {
			if _, _, err := cluster.ReadFrame(r); err != nil {
				t.Fatal(err)
			}
		}); got != 1 {
			t.Errorf("ReadFrame of a small frame from a %s: %v allocations, want 1 (the body)", name, got)
		}
	}
}

// transportPair opens two loopback transports, closed when tb ends: from
// first, since a transport's Close waits for its inbound connections to end.
func transportPair(tb testing.TB) (from, to *cluster.Transport) {
	tb.Helper()
	to, err := cluster.NewTransport("127.0.0.1:0", 64)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(to.Close)
	if from, err = cluster.NewTransport("127.0.0.1:0", 64); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(from.Close)
	return from, to
}

// TestTransportDeliversInOrder sends one ears n=256 message, whose frame
// is larger than the receiver's 4 KiB bufio.Reader, then 1 000 push-pull
// and averaging messages over loopback: each must arrive in send order
// and equal what was sent.
func TestTransportDeliversInOrder(t *testing.T) {
	ears := captureSends(t, core.NameEARS, 256, 1)
	body, err := cluster.AppendGossip(nil, ears[0])
	if err != nil || len(body) <= 4096 {
		t.Fatalf("ears n=256 gossip body is %d bytes (%v), want more than bufio's 4096", len(body), err)
	}
	want := append(ears, captureSends(t, core.NamePushPull, 256, 500)...)
	want = append(want, captureSends(t, core.NameAverage, 256, 500)...)

	from, to := transportPair(t)
	sent := make(chan error, 1)
	go func(sent chan<- error) {
		for _, m := range want {
			if err := from.Send(to.Addr(), m); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}(sent)
	timeout := time.After(30 * time.Second)
	for i := 0; i < len(want); {
		select {
		case got := <-to.Recv():
			w := want[i]
			if got.From != w.From || got.To != w.To || got.SentAt != w.SentAt ||
				!core.WirePayloadEquals(got.Payload, w.Payload) {
				t.Fatalf("message %d arrived as %d→%d@%d %#v, sent %d→%d@%d %#v",
					i, got.From, got.To, got.SentAt, got.Payload, w.From, w.To, w.SentAt, w.Payload)
			}
			i++
		case err := <-sent:
			if err != nil {
				t.Fatalf("send: %v", err)
			}
			sent = nil // every message is out; keep receiving
		case <-timeout:
			t.Fatalf("%d of %d messages arrived", i, len(want))
		}
	}
}

// TestTransportConcurrentSends has four goroutines share one transport's
// encoding scratch and peer connection: every message must arrive intact,
// and each sender's messages in its own order.
func TestTransportConcurrentSends(t *testing.T) {
	const senders, each = 4, 100
	msgs := captureSends(t, core.NamePushPull, 256, senders*each)
	from, to := transportPair(t)
	errs := make(chan error, senders)
	for g := 0; g < senders; g++ {
		go func(g int) {
			for i := 0; i < each; i++ {
				m := msgs[g*each+i]
				m.SentAt = sim.Time(g*each + i) // tags the sender and its order
				if err := from.Send(to.Addr(), m); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	var next [senders]int
	timeout := time.After(30 * time.Second)
	for got := 0; got < senders*each; {
		select {
		case m := <-to.Recv():
			g, i := int(m.SentAt)/each, int(m.SentAt)%each
			if g >= senders || i != next[g] {
				t.Fatalf("sender %d's message %d arrived, expected its message %d", g, i, next[g])
			}
			if !core.WirePayloadEquals(m.Payload, msgs[int(m.SentAt)].Payload) {
				t.Fatalf("sender %d's message %d arrived changed", g, i)
			}
			next[g]++
			got++
		case err := <-errs:
			if err != nil {
				t.Fatalf("send: %v", err)
			}
		case <-timeout:
			t.Fatalf("%d of %d messages arrived", got, senders*each)
		}
	}
}

// TestTransportSendAllocs pins Send at no allocation once its scratch
// buffers and peer connection are warm: an ears n=256 and a push-pull
// message, each encoded, framed and written, to a peer that discards
// what it reads.
func TestTransportSendAllocs(t *testing.T) {
	msgs := append(captureSends(t, core.NameEARS, 256, 1), captureSends(t, core.NamePushPull, 256, 1)...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return // the sender closed
			}
		}
	}()
	from, err := cluster.NewTransport("127.0.0.1:0", 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(from.Close)
	addr := ln.Addr().String()
	if got := testing.AllocsPerRun(100, func() {
		for _, m := range msgs {
			if err := from.Send(addr, m); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Errorf("Send of an ears and a push-pull message: %v allocations, want 0", got)
	}
}

// BenchmarkFrameRoundTrip is the framed round-trip layer benchmark.
// buffer: an ears n=256 matrix frame and a push-pull frame each through
// AppendGossip, WriteFrame into a reused bytes.Buffer, ReadFrame and
// DecodeGossip. loopback: the same two messages from one Transport's
// Send to another's Recv over 127.0.0.1.
func BenchmarkFrameRoundTrip(b *testing.B) {
	msgs := append(captureSends(b, core.NameEARS, 256, 1), captureSends(b, core.NamePushPull, 256, 1)...)

	b.Run("buffer", func(b *testing.B) {
		var body []byte
		var buf bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range msgs {
				var err error
				if body, err = cluster.AppendGossip(body[:0], m); err != nil {
					b.Fatal(err)
				}
				buf.Reset()
				if err := cluster.WriteFrame(&buf, cluster.KindGossip, body); err != nil {
					b.Fatal(err)
				}
				_, raw, err := cluster.ReadFrame(&buf)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cluster.DecodeGossip(raw); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("loopback", func(b *testing.B) {
		from, to := transportPair(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range msgs {
				if err := from.Send(to.Addr(), m); err != nil {
					b.Fatal(err)
				}
				<-to.Recv()
			}
		}
	})
}
