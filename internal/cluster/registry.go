package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"
)

// Registry is the cluster's control plane: a TCP service nodes join on
// startup, heartbeat for liveness and discovery, stream their final
// report to, and leave on shutdown. It is deliberately passive — it
// records state and answers requests; the driver reads its snapshots to
// decide quiescence and flips the run directive. Each node holds one
// persistent control connection and speaks strict request/response over
// it, so a connection handler is a simple sequential loop.
type Registry struct {
	ln    net.Listener
	epoch int64

	mu        sync.Mutex
	members   map[int]*memberState
	directive string
	reports   map[int]*NodeReport
	conns     map[net.Conn]struct{}

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

type memberState struct {
	Member
	lastSeen time.Time
	hb       HeartbeatMsg
	hasHB    bool
	left     bool
}

// NewRegistry starts a registry listening on addr ("127.0.0.1:0" for an
// ephemeral port). epoch is the shared run epoch (UnixNano) distributed
// to joiners; all live timestamps are nanoseconds since it.
func NewRegistry(addr string, epoch int64) (*Registry, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: registry listen %s: %w", addr, err)
	}
	r := &Registry{
		ln:        ln,
		epoch:     epoch,
		members:   make(map[int]*memberState),
		directive: DirectiveRun,
		reports:   make(map[int]*NodeReport),
		conns:     make(map[net.Conn]struct{}),
		closed:    make(chan struct{}),
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the registry's concrete address.
func (r *Registry) Addr() string { return r.ln.Addr().String() }

func (r *Registry) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go r.handleConn(conn)
	}
}

func (r *Registry) handleConn(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	for {
		kind, body, err := ReadFrame(br)
		if err != nil {
			return
		}
		var replyKind byte
		var reply any
		switch kind {
		case KindJoin:
			var msg JoinMsg
			if err := json.Unmarshal(body, &msg); err != nil {
				return
			}
			replyKind, reply = KindJoinOK, r.join(msg)
		case KindHeartbeat:
			var msg HeartbeatMsg
			if err := json.Unmarshal(body, &msg); err != nil {
				return
			}
			replyKind, reply = KindHeartbeatAck, r.heartbeat(msg)
		case KindReport:
			var rep NodeReport
			if err := json.Unmarshal(body, &rep); err != nil {
				return
			}
			r.report(&rep)
			replyKind, reply = KindReportOK, struct{}{}
		case KindLeave:
			var msg LeaveMsg
			if err := json.Unmarshal(body, &msg); err != nil {
				return
			}
			r.leave(msg.ID)
			replyKind, reply = KindLeaveOK, struct{}{}
		default:
			return // unknown control request: drop the connection
		}
		out, err := json.Marshal(reply)
		if err != nil {
			return
		}
		if err := WriteFrame(conn, replyKind, out); err != nil {
			return
		}
	}
}

func (r *Registry) join(msg JoinMsg) JoinOKMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.members[msg.ID] = &memberState{
		Member:   Member{ID: msg.ID, Addr: msg.Addr, MetricsAddr: msg.MetricsAddr},
		lastSeen: time.Now(),
	}
	return JoinOKMsg{EpochUnixNano: r.epoch, Members: r.memberListLocked()}
}

func (r *Registry) heartbeat(msg HeartbeatMsg) HeartbeatAckMsg {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ms, ok := r.members[msg.ID]; ok {
		ms.lastSeen = time.Now()
		ms.hb = msg
		ms.hasHB = true
	}
	return HeartbeatAckMsg{Directive: r.directive, Members: r.memberListLocked()}
}

func (r *Registry) report(rep *NodeReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reports[rep.ID] = rep
}

func (r *Registry) leave(id int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ms, ok := r.members[id]; ok {
		ms.left = true
	}
}

func (r *Registry) memberListLocked() []Member {
	out := make([]Member, 0, len(r.members))
	for _, ms := range r.members {
		if !ms.left {
			out = append(out, ms.Member)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SetDirective flips the run directive delivered with the next heartbeat
// ack of every node.
func (r *Registry) SetDirective(d string) {
	r.mu.Lock()
	r.directive = d
	r.mu.Unlock()
}

// SweepStats is one quiescence-detector sweep over the registry's view of
// the cluster: the global credit count (Sent vs Received+Drained) plus
// per-node liveness.
type SweepStats struct {
	Joined    int
	Left      int
	Crashed   int
	HaveAllHB bool // every non-left member has heartbeated at least once
	AllQuiet  bool // every non-left member reports Quiescent (crashed nodes report quiescent once drained)
	// MinLiveSteps is the minimum step count over non-crashed members.
	// Quiescence requires it >= 1: a spreading protocol's uninformed
	// processes are quiescent from birth, so without this floor a sweep
	// could declare the cluster done before the initiator's first step.
	MinLiveSteps int64
	Steps        int64
	Sent         int64
	Received     int64
	Drained      int64
	OffEdge      int64
}

// Sweep snapshots the detector's inputs.
func (r *Registry) Sweep() SweepStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := SweepStats{HaveAllHB: true, AllQuiet: true, MinLiveSteps: -1}
	for _, ms := range r.members {
		s.Joined++
		if ms.left {
			s.Left++
		}
		if !ms.hasHB {
			s.HaveAllHB = false
			s.AllQuiet = false
			s.MinLiveSteps = 0
			continue
		}
		if ms.hb.Crashed {
			s.Crashed++
		} else if s.MinLiveSteps < 0 || ms.hb.Steps < s.MinLiveSteps {
			s.MinLiveSteps = ms.hb.Steps
		}
		if !ms.hb.Quiescent && !ms.left {
			s.AllQuiet = false
		}
		s.Steps += ms.hb.Steps
		s.Sent += ms.hb.Sent
		s.Received += ms.hb.Received
		s.Drained += ms.hb.Drained
		s.OffEdge += ms.hb.OffEdge
	}
	return s
}

// Stale returns the IDs of members whose last heartbeat is older than ttl
// and that have not left — candidates for "process died without crashing
// on schedule", surfaced in driver timeouts.
func (r *Registry) Stale(ttl time.Duration) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	cutoff := time.Now().Add(-ttl)
	var out []int
	for id, ms := range r.members {
		if !ms.left && ms.lastSeen.Before(cutoff) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// ReportCount returns how many final reports have arrived.
func (r *Registry) ReportCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.reports)
}

// Reports returns the collected final reports ordered by node ID.
func (r *Registry) Reports() []*NodeReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*NodeReport, 0, len(r.reports))
	for _, rep := range r.reports {
		out = append(out, rep)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close shuts the registry listener and waits for handlers to finish.
func (r *Registry) Close() {
	r.closeOnce.Do(func() {
		close(r.closed)
		r.ln.Close()
		r.mu.Lock()
		for c := range r.conns {
			c.Close()
		}
		r.mu.Unlock()
	})
	r.wg.Wait()
}
