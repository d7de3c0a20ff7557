package cluster_test

import (
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/syncgossip"
)

// runLive replays spec in-process with tight pacing and requires every
// live oracle to accept. These are the harness's end-to-end tests: real
// TCP listeners on loopback, real goroutine nodes, the binary wire codec,
// the registry control plane and the quiescence detector all in the loop.
func runLive(t *testing.T, spec scenario.Spec) *cluster.Result {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := cluster.Run(ctx, spec, cluster.Options{
		StepEvery: 200 * time.Microsecond,
		Heartbeat: 10 * time.Millisecond,
		Timeout:   45 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatalf("cluster did not quiesce: sent=%d received=%d drained=%d",
			res.TotalSent, res.TotalReceived, res.TotalDrained)
	}
	for _, v := range res.Verdicts {
		if !v.OK {
			t.Errorf("oracle %s: %s", v.Oracle, v.Detail)
		}
	}
	if !res.Passed {
		t.Fatal("run not passed")
	}
	return res
}

func liveSpec(proto string, n, f int) scenario.Spec {
	spec := scenario.Spec{
		Protocol: proto, N: n, F: f, D: 2, Delta: 2, Seed: 42,
		Schedule:       scenario.ScheduleSpec{Kind: scenario.SchedEvery},
		Delay:          scenario.DelaySpec{Kind: scenario.DelayFixed, Value: 1},
		Majority:       proto == core.NameTEARS,
		ExpectComplete: !(proto == core.NameAverage && f > 0),
	}
	for i := 0; i < f; i++ {
		spec.Crashes = append(spec.Crashes, scenario.CrashEvent{At: int64(10 + 7*i), Proc: n - 1 - i})
	}
	return spec
}

func TestLiveEARSWithCrashes(t *testing.T) {
	res := runLive(t, liveSpec(core.NameEARS, 10, 2))
	crashed := 0
	for _, rp := range res.Reports {
		if rp.Crashed {
			crashed++
		}
	}
	if crashed != 2 {
		t.Errorf("%d nodes crashed, plan had 2", crashed)
	}
	if !res.Completed {
		t.Error("run not marked completed")
	}
	if res.TotalSent == 0 || res.Latency.Count == 0 {
		t.Errorf("empty run: sent=%d latency samples=%d", res.TotalSent, res.Latency.Count)
	}
}

// trivial sends to every peer exactly once, so the live message count is
// the simulator's exactly: n(n−1).
func TestLiveTrivialGossip(t *testing.T) {
	res := runLive(t, liveSpec(core.NameTrivial, 16, 0))
	if want := int64(16 * 15); res.TotalSent != want {
		t.Errorf("sent %d messages, want %d", res.TotalSent, want)
	}
}

func TestLiveTEARSMajority(t *testing.T) {
	res := runLive(t, liveSpec(core.NameTEARS, 48, 0))
	if !res.Completed {
		t.Error("tears run did not gather a majority everywhere")
	}
}

func TestLivePullSpread(t *testing.T) {
	res := runLive(t, liveSpec(core.NamePull, 8, 0))
	for _, rp := range res.Reports {
		if !rp.HasInformed || !rp.Informed {
			t.Errorf("node %d uninformed after a pull run", rp.ID)
		}
	}
}

func TestLiveAveraging(t *testing.T) {
	res := runLive(t, liveSpec(core.NameAverage, 8, 0))
	if !res.Completed {
		t.Error("crash-free averaging run did not converge on the mean")
	}
}

func TestLiveRingTopology(t *testing.T) {
	spec := liveSpec(core.NameSEARS, 8, 0)
	spec.Topology = "ring"
	res := runLive(t, spec)
	if res.TotalOffEdge != 0 {
		t.Errorf("%d off-edge sends on a ring", res.TotalOffEdge)
	}
}

// Synchronous baselines have no wire codec; the driver must reject them
// up front rather than hang a cluster.
func TestLiveRejectsSyncProtocols(t *testing.T) {
	for _, proto := range []string{syncgossip.NameSyncEpidemic, syncgossip.NameSyncDeterministic} {
		spec := liveSpec(proto, 4, 0)
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if _, err := cluster.Run(context.Background(), spec, cluster.Options{}); err == nil {
			t.Errorf("driver accepted the simulator-only protocol %s", proto)
		}
	}
}

// control is a bare-TCP control-plane client for registry tests.
type control struct {
	t    *testing.T
	conn net.Conn
}

func dialRegistry(t *testing.T, addr string) *control {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &control{t: t, conn: conn}
}

func (c *control) roundTrip(kind byte, msg, reply any) {
	c.t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		c.t.Fatal(err)
	}
	if err := cluster.WriteFrame(c.conn, kind, body); err != nil {
		c.t.Fatal(err)
	}
	gotKind, gotBody, err := cluster.ReadFrame(c.conn)
	if err != nil {
		c.t.Fatal(err)
	}
	if gotKind != kind+1 {
		c.t.Fatalf("reply kind %#x to request %#x", gotKind, kind)
	}
	if reply != nil {
		if err := json.Unmarshal(gotBody, reply); err != nil {
			c.t.Fatal(err)
		}
	}
}

func TestRegistryControlPlane(t *testing.T) {
	reg, err := cluster.NewRegistry("127.0.0.1:0", 12345)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	c0 := dialRegistry(t, reg.Addr())
	var ok cluster.JoinOKMsg
	c0.roundTrip(cluster.KindJoin, cluster.JoinMsg{ID: 0, Addr: "127.0.0.1:1000"}, &ok)
	if ok.EpochUnixNano != 12345 {
		t.Fatalf("epoch %d, want 12345", ok.EpochUnixNano)
	}
	c1 := dialRegistry(t, reg.Addr())
	c1.roundTrip(cluster.KindJoin, cluster.JoinMsg{ID: 1, Addr: "127.0.0.1:1001"}, &ok)
	if len(ok.Members) != 2 {
		t.Fatalf("second joiner sees %d members, want 2", len(ok.Members))
	}

	var ack cluster.HeartbeatAckMsg
	c0.roundTrip(cluster.KindHeartbeat,
		cluster.HeartbeatMsg{ID: 0, Steps: 3, Sent: 5, Received: 4, Drained: 1, Quiescent: true}, &ack)
	if ack.Directive != cluster.DirectiveRun {
		t.Fatalf("directive %q, want run", ack.Directive)
	}
	c1.roundTrip(cluster.KindHeartbeat,
		cluster.HeartbeatMsg{ID: 1, Steps: 2, Sent: 5, Received: 5, Drained: 0, Quiescent: true}, &ack)

	s := reg.Sweep()
	if s.Joined != 2 || !s.HaveAllHB || !s.AllQuiet {
		t.Fatalf("sweep %+v after two quiescent heartbeats", s)
	}
	if s.Sent != 10 || s.Received != 9 || s.Drained != 1 || s.MinLiveSteps != 2 {
		t.Fatalf("sweep counters %+v", s)
	}

	reg.SetDirective(cluster.DirectiveDrain)
	c0.roundTrip(cluster.KindHeartbeat, cluster.HeartbeatMsg{ID: 0, Quiescent: true}, &ack)
	if ack.Directive != cluster.DirectiveDrain {
		t.Fatalf("directive %q after SetDirective, want drain", ack.Directive)
	}

	c0.roundTrip(cluster.KindReport, cluster.NodeReport{ID: 0, Steps: 3}, &struct{}{})
	if reg.ReportCount() != 1 {
		t.Fatalf("report count %d, want 1", reg.ReportCount())
	}
	c0.roundTrip(cluster.KindLeave, cluster.LeaveMsg{ID: 0}, &struct{}{})
	if s := reg.Sweep(); s.Left != 1 {
		t.Fatalf("sweep %+v after one leave", s)
	}

	// Node 1 stops heartbeating: with a tiny TTL it must show up stale;
	// node 0 left and must not.
	time.Sleep(5 * time.Millisecond)
	if stale := reg.Stale(time.Nanosecond); len(stale) != 1 || stale[0] != 1 {
		t.Fatalf("stale %v, want [1]", stale)
	}
	if stale := reg.Stale(time.Hour); len(stale) != 0 {
		t.Fatalf("stale %v with a generous TTL", stale)
	}
}
