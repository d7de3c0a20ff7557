package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/sim"
)

// Transport is one node's data-plane endpoint: a TCP listener feeding a
// decoded inbox channel, plus a cache of outbound connections with dial
// retry and exponential backoff. The model's links are reliable and
// unbounded; TCP provides reliability and ordering, the buffered inbox
// plus the receiver's drain loop provide "unbounded" in practice, and the
// backoff absorbs the join race where a peer's listener is registered but
// not yet accepting.
type Transport struct {
	ln    net.Listener
	inbox chan sim.Message

	mu    sync.Mutex
	conns map[string]net.Conn
	body  []byte       // Send's encoding scratch
	frame bytes.Buffer // Send's framing scratch

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	// dialAttempts/dialBackoff parameterize Send's retry loop: attempts
	// are spaced dialBackoff, 2·dialBackoff, 4·dialBackoff, ...
	dialAttempts int
	dialBackoff  time.Duration
}

// NewTransport opens a listener on addr ("127.0.0.1:0" for an ephemeral
// loopback port) with an inbox buffered to inboxCap decoded messages.
func NewTransport(addr string, inboxCap int) (*Transport, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	if inboxCap < 64 {
		inboxCap = 64
	}
	t := &Transport{
		ln:           ln,
		inbox:        make(chan sim.Message, inboxCap),
		conns:        make(map[string]net.Conn),
		closed:       make(chan struct{}),
		dialAttempts: 8,
		dialBackoff:  5 * time.Millisecond,
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener's concrete address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Recv returns the decoded inbound message channel.
func (t *Transport) Recv() <-chan sim.Message { return t.inbox }

// acceptLoop accepts peer connections; each gets a reader goroutine that
// decodes gossip frames into the inbox until EOF.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		kind, body, err := ReadFrame(br)
		if err != nil {
			return // EOF, peer close, or garbage: drop the connection
		}
		if kind != KindGossip {
			continue // data-plane connections carry gossip only
		}
		m, err := DecodeGossip(body)
		if err != nil {
			return
		}
		select {
		case t.inbox <- m:
		case <-t.closed:
			return
		}
	}
}

// ErrTransportClosed reports a send on a closed transport.
var ErrTransportClosed = errors.New("cluster: transport closed")

// Send encodes and frames m in the transport's scratch buffers and ships
// it to the peer at addr in one write, dialing (with retry and
// exponential backoff) or re-dialing as needed. Writes to one peer
// are serialized by the connection cache lock; the per-node send rate is
// one outbox per paced step, so contention is not a concern.
func (t *Transport) Send(addr string, m sim.Message) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	body, err := AppendGossip(t.body[:0], m)
	if err != nil {
		return err
	}
	t.body = body
	t.frame.Reset()
	if err := WriteFrame(&t.frame, KindGossip, body); err != nil {
		return err
	}
	select {
	case <-t.closed:
		return ErrTransportClosed
	default:
	}
	conn := t.conns[addr]
	if conn != nil {
		if _, err := conn.Write(t.frame.Bytes()); err == nil {
			return nil
		}
		// Peer restarted or the connection died: drop and re-dial once
		// through the same backoff path.
		conn.Close()
		delete(t.conns, addr)
	}
	conn, err = t.dial(addr)
	if err != nil {
		return err
	}
	if _, err := conn.Write(t.frame.Bytes()); err != nil {
		conn.Close()
		return err
	}
	t.conns[addr] = conn
	return nil
}

// dial connects to addr, retrying with exponential backoff. Called with
// t.mu held; the backoff sleeps therefore also serialize sends, which is
// acceptable — dialing only happens at startup and after a peer failure.
func (t *Transport) dial(addr string) (net.Conn, error) {
	backoff := t.dialBackoff
	var lastErr error
	for attempt := 0; attempt < t.dialAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(backoff):
			case <-t.closed:
				return nil, ErrTransportClosed
			}
			backoff *= 2
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: dial %s: %w", addr, lastErr)
}

// Close shuts the listener and every cached connection and unblocks
// readers.
func (t *Transport) Close() {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.ln.Close()
		t.mu.Lock()
		for addr, c := range t.conns {
			c.Close()
			delete(t.conns, addr)
		}
		t.mu.Unlock()
	})
	t.wg.Wait()
}
