package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// NodeConfig parameterizes one cluster node.
type NodeConfig struct {
	// ID is the process identifier (0..N-1); N the cluster size.
	ID int
	N  int
	// RegistryAddr is the control-plane address to join.
	RegistryAddr string
	// StepEvery is the mean pacing of local steps (jittered ±50% per
	// node). Default 1ms.
	StepEvery time.Duration
	// HeartbeatEvery paces control-plane heartbeats. Default 25ms.
	HeartbeatEvery time.Duration
	// CrashAfter halts the gossip plane this long after the shared run
	// epoch (0 = never). A crashed node stops stepping and sending but
	// keeps draining its inbox and heartbeating — the control plane stays
	// alive so cluster-wide credit accounting remains exact, mirroring
	// the simulator's drain discipline.
	CrashAfter time.Duration
	// StartTimeout bounds join + peer discovery. Default 30s.
	StartTimeout time.Duration
	// Graph is the communication topology; sends along non-edges are
	// dropped and counted, as in the simulator. Nil = complete graph.
	Graph topology.Graph
	// TraceCap bounds the node's live event trace (0 = default).
	TraceCap int
	// MetricsAddr, when non-empty (e.g. "127.0.0.1:0"), serves the node's
	// telemetry as an OpenMetrics scrape endpoint at /metrics.
	MetricsAddr string
	// Seed drives pacing jitter.
	Seed int64
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.StepEvery <= 0 {
		c.StepEvery = time.Millisecond
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 25 * time.Millisecond
	}
	if c.StartTimeout <= 0 {
		c.StartTimeout = 30 * time.Second
	}
	return c
}

// NodeReport is a node's final accounting, streamed to the registry after
// the drain directive. Counter semantics match HeartbeatMsg; the protocol
// state block carries whichever state interfaces the node implements
// (rumor sets for gossip, the informed bit for spreading, sum/weight for
// averaging) so the live oracles can judge completion and validity.
type NodeReport struct {
	ID          int    `json:"id"`
	Addr        string `json:"addr"`
	MetricsAddr string `json:"metrics_addr,omitempty"`

	Steps     int64 `json:"steps"`
	Sent      int64 `json:"sent"`
	Received  int64 `json:"received"`
	Drained   int64 `json:"drained"`
	OffEdge   int64 `json:"off_edge"`
	SendFails int64 `json:"send_fails,omitempty"`
	Crashed   bool  `json:"crashed"`
	CrashedAt int64 `json:"crashed_at,omitempty"` // nanos since epoch
	Quiescent bool  `json:"quiescent"`

	HasRumors   bool    `json:"has_rumors,omitempty"`
	Rumors      []int   `json:"rumors,omitempty"`
	HasInformed bool    `json:"has_informed,omitempty"`
	Informed    bool    `json:"informed,omitempty"`
	HasAvg      bool    `json:"has_avg,omitempty"`
	Sum         float64 `json:"sum,omitempty"`
	Weight      float64 `json:"weight,omitempty"`
	Initial     float64 `json:"initial,omitempty"`

	Trace        []LiveEvent `json:"trace,omitempty"`
	TraceDropped int64       `json:"trace_dropped,omitempty"`
}

// controlConn is a node's persistent request/response connection to the
// registry.
type controlConn struct{ conn net.Conn }

func dialControl(addr string, timeout time.Duration) (*controlConn, error) {
	deadline := time.Now().Add(timeout)
	backoff := 5 * time.Millisecond
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return &controlConn{conn: conn}, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: dial registry %s: %w", addr, err)
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

func (c *controlConn) roundTrip(kind byte, msg, reply any) error {
	body, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	if err := WriteFrame(c.conn, kind, body); err != nil {
		return err
	}
	gotKind, gotBody, err := ReadFrame(c.conn)
	if err != nil {
		return err
	}
	if gotKind != kind+1 { // every reply kind is request kind + 1
		return fmt.Errorf("cluster: control reply kind %#x to request %#x", gotKind, kind)
	}
	return json.Unmarshal(gotBody, reply)
}

func (c *controlConn) Close() { c.conn.Close() }

// RunNode executes one node's full lifecycle — listen, register, discover
// peers, gossip until the registry's drain directive, drain, report,
// deregister — and returns the final report (which was also streamed to
// the registry). nd must be an unpooled protocol node with ID cfg.ID;
// cross-process payloads travel as core's wire codec, so pooled snapshots
// must not be in play (use core.Params.NoPool, as Run does).
func RunNode(cfg NodeConfig, nd sim.Node) (*NodeReport, error) {
	cfg = cfg.withDefaults()
	if nd == nil || int(nd.ID()) != cfg.ID {
		return nil, fmt.Errorf("cluster: node reports ID %v, config says %d", nd, cfg.ID)
	}
	tr, err := NewTransport("127.0.0.1:0", 4*cfg.N+64)
	if err != nil {
		return nil, err
	}
	defer tr.Close()

	// Telemetry: a per-node recorder teed with the bounded live trace.
	// The recorder and trace belong to this goroutine; the HTTP endpoint
	// reads atomically published copies.
	rec := telemetry.NewRecorder(cfg.N)
	trace := NewTraceRecorder(cfg.TraceCap)
	tracer := sim.Tee(rec, trace)
	var pub atomic.Pointer[metricsState]
	metricsAddr := ""
	if cfg.MetricsAddr != "" {
		srv, addr, err := serveMetrics(cfg.MetricsAddr, cfg.ID, &pub)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		metricsAddr = addr
	}

	// Register, learn the shared epoch, then heartbeat until every peer's
	// listener address is known — stepping before that would lose sends.
	ctl, err := dialControl(cfg.RegistryAddr, cfg.StartTimeout)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	var joinOK JoinOKMsg
	join := JoinMsg{ID: cfg.ID, Addr: tr.Addr(), MetricsAddr: metricsAddr}
	if err := ctl.roundTrip(KindJoin, join, &joinOK); err != nil {
		return nil, fmt.Errorf("cluster: node %d join: %w", cfg.ID, err)
	}
	epoch := joinOK.EpochUnixNano
	now := func() sim.Time { return sim.Time(time.Now().UnixNano() - epoch) }

	peers := make([]string, cfg.N)
	known := 0
	absorb := func(ms []Member) {
		for _, m := range ms {
			if m.ID >= 0 && m.ID < cfg.N && peers[m.ID] == "" {
				peers[m.ID] = m.Addr
				known++
			}
		}
	}
	absorb(joinOK.Members)
	deadline := time.Now().Add(cfg.StartTimeout)
	for known < cfg.N {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: node %d discovered %d/%d peers before StartTimeout", cfg.ID, known, cfg.N)
		}
		time.Sleep(5 * time.Millisecond)
		var ack HeartbeatAckMsg
		if err := ctl.roundTrip(KindHeartbeat, HeartbeatMsg{ID: cfg.ID}, &ack); err != nil {
			return nil, fmt.Errorf("cluster: node %d discovery heartbeat: %w", cfg.ID, err)
		}
		absorb(ack.Members)
	}

	// Gossip loop: jittered pacing — each node steps at its own rhythm.
	r := rng.New(cfg.Seed).Fork(0xC1A5).Fork(uint64(cfg.ID))
	pace := cfg.StepEvery/2 + time.Duration(r.Intn(int(cfg.StepEvery)))
	ticker := time.NewTicker(pace)
	defer ticker.Stop()

	rep := &NodeReport{ID: cfg.ID, Addr: tr.Addr(), MetricsAddr: metricsAddr}
	out := sim.NewOutbox(sim.ProcID(cfg.ID), 0, cfg.N)
	inbox := make([]sim.Message, 0, 64)
	lastHB := time.Time{}
	directive := DirectiveRun

	for directive == DirectiveRun {
		<-ticker.C
		t := now()

		if !rep.Crashed && cfg.CrashAfter > 0 && t >= sim.Time(cfg.CrashAfter) {
			rep.Crashed, rep.CrashedAt = true, int64(t)
			tracer.OnCrash(sim.ProcID(cfg.ID), t)
		}

		if rep.Crashed {
			// Gossip plane halted; keep credits moving.
			rep.Drained += drainInbox(tr)
			rep.Quiescent = len(tr.Recv()) == 0
		} else {
			inbox = inbox[:0]
		recv:
			for {
				select {
				case m := <-tr.Recv():
					inbox = append(inbox, m)
				default:
					break recv
				}
			}
			for _, m := range inbox {
				tracer.OnDeliver(m, t)
			}
			out.Reset(sim.ProcID(cfg.ID), t, cfg.N)
			nd.Step(t, inbox, out)
			rep.Steps++
			rep.Received += int64(len(inbox))
			tracer.OnStep(sim.ProcID(cfg.ID), t)
			for _, m := range out.Messages() {
				if cfg.Graph != nil && !cfg.Graph.HasEdge(int(m.From), int(m.To)) {
					rep.OffEdge++
					continue
				}
				tracer.OnSend(m)
				if err := tr.Send(peers[m.To], m); err != nil {
					// A lost send must not earn a credit, or the global
					// sent == received + drained balance never closes.
					rep.SendFails++
					continue
				}
				rep.Sent++
			}
			rep.Quiescent = nd.Quiescent() && len(tr.Recv()) == 0
		}

		if time.Since(lastHB) >= cfg.HeartbeatEvery {
			lastHB = time.Now()
			snap := rec.Snapshot()
			pub.Store(&metricsState{snap: snap, rep: *rep})
			var ack HeartbeatAckMsg
			if err := ctl.roundTrip(KindHeartbeat, heartbeatOf(rep), &ack); err != nil {
				return nil, fmt.Errorf("cluster: node %d heartbeat: %w", cfg.ID, err)
			}
			directive = ack.Directive
		}
	}

	// Drain: consume any stragglers so credits balance, then report and
	// deregister. The driver only issues the directive once the cluster's
	// credit count is stable at zero, so this sweep is normally empty.
	rep.Drained += drainInbox(tr)
	fillStateReport(rep, nd)
	rep.Trace, rep.TraceDropped = trace.Events, trace.Dropped
	var okReply struct{}
	if err := ctl.roundTrip(KindReport, rep, &okReply); err != nil {
		return nil, fmt.Errorf("cluster: node %d report: %w", cfg.ID, err)
	}
	if err := ctl.roundTrip(KindLeave, LeaveMsg{ID: cfg.ID}, &okReply); err != nil {
		return nil, fmt.Errorf("cluster: node %d leave: %w", cfg.ID, err)
	}
	return rep, nil
}

func drainInbox(tr *Transport) (n int64) {
	for {
		select {
		case <-tr.Recv():
			n++
		default:
			return n
		}
	}
}

func heartbeatOf(rep *NodeReport) HeartbeatMsg {
	return HeartbeatMsg{
		ID:        rep.ID,
		Steps:     rep.Steps,
		Sent:      rep.Sent,
		Received:  rep.Received,
		Drained:   rep.Drained,
		OffEdge:   rep.OffEdge,
		Quiescent: rep.Quiescent,
		Crashed:   rep.Crashed,
	}
}

// fillStateReport extracts whichever protocol state interfaces the node
// implements — the same seams the simulator's evaluators read.
func fillStateReport(rep *NodeReport, nd sim.Node) {
	if rh, ok := nd.(core.RumorHolder); ok {
		rep.HasRumors = true
		rh.RumorSet().ForEach(func(i int) bool {
			rep.Rumors = append(rep.Rumors, i)
			return true
		})
	}
	if inf, ok := nd.(core.Informed); ok {
		rep.HasInformed = true
		rep.Informed = inf.Informed()
	}
	if avg, ok := nd.(core.AverageState); ok {
		rep.HasAvg = true
		rep.Sum, rep.Weight = avg.Estimate()
		rep.Initial = avg.InitialValue()
	}
}

// metricsState is the atomically published view the scrape endpoint
// renders: the telemetry snapshot plus node-level gauges.
type metricsState struct {
	snap telemetry.Snapshot
	rep  NodeReport
}

func serveMetrics(addr string, id int, pub *atomic.Pointer[metricsState]) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("cluster: metrics listen %s: %w", addr, err)
	}
	labels := map[string]string{"node": fmt.Sprint(id)}
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.MetricsHandler(func() (telemetry.Snapshot, []telemetry.Gauge) {
		st := pub.Load()
		if st == nil {
			return telemetry.Snapshot{}, nil
		}
		extra := []telemetry.Gauge{
			{Name: "cluster_node_sent", Help: "Messages sent by this cluster node.", Value: float64(st.rep.Sent), Labels: labels},
			{Name: "cluster_node_received", Help: "Messages received by this cluster node.", Value: float64(st.rep.Received), Labels: labels},
			{Name: "cluster_node_drained", Help: "Messages drained post-crash by this cluster node.", Value: float64(st.rep.Drained), Labels: labels},
			{Name: "cluster_node_steps", Help: "Local steps taken by this cluster node.", Value: float64(st.rep.Steps), Labels: labels},
			{Name: "cluster_node_crashed", Help: "1 when this node's gossip plane has crashed.", Value: b2f(st.rep.Crashed), Labels: labels},
			{Name: "cluster_node_quiescent", Help: "1 when this node is locally quiescent.", Value: b2f(st.rep.Quiescent), Labels: labels},
		}
		return st.snap, extra
	}))
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
