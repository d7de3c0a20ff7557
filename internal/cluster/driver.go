package cluster

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
)

// Run modes.
const (
	ModeInproc = "inproc" // every node a goroutine in this process
	ModeProcs  = "procs"  // one OS process per node (cmd/cluster's launcher)
)

// Options parameterizes a cluster run.
type Options struct {
	// StepEvery paces node steps; one simulated "step" of the spec's crash
	// plan maps to this much wall clock. Default 1ms.
	StepEvery time.Duration
	// Heartbeat paces both node heartbeats and driver quiescence sweeps.
	// Default 25ms.
	Heartbeat time.Duration
	// Timeout aborts the run if the cluster has not quiesced. Default 60s.
	Timeout time.Duration
	// Metrics serves each node's telemetry on an ephemeral loopback
	// OpenMetrics endpoint.
	Metrics bool
	// TraceCap bounds each node's live event trace (0 = default).
	TraceCap int
	// Launch starts one node against the registry, non-blocking, and must
	// deliver any node failure on errs (at most one value). Nil selects
	// the in-process launcher: one RunNode goroutine per node, sharing
	// this process. cmd/cluster supplies an os/exec launcher instead.
	Launch func(cfg NodeConfig, errs chan<- error)
}

func (o Options) withDefaults() Options {
	if o.StepEvery <= 0 {
		o.StepEvery = time.Millisecond
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 25 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	return o
}

// Result is a finished cluster run: the spec it replayed, per-node
// reports, the merged wall-clock trace, totals, and the live oracle
// verdicts.
type Result struct {
	Spec scenario.Spec
	Mode string
	// StepEvery is the pacing the run used; the time-envelope oracle
	// converts the spec's step bound to wall clock with it.
	StepEvery time.Duration
	// Wall is total run time; QuiesceWall the time to detected quiescence.
	Wall        time.Duration
	QuiesceWall time.Duration
	TimedOut    bool

	Reports []*NodeReport
	Trace   []LiveEvent
	Latency LatencySummary

	TotalSteps, TotalSent, TotalReceived, TotalDrained int64
	TotalOffEdge, TotalSendFails                       int64

	// Verdicts are the live oracle judgments; Passed means all OK.
	// Completed reports the protocol's completion condition independent of
	// Spec.ExpectComplete.
	Verdicts  []Verdict
	Passed    bool
	Completed bool
}

// EffectiveCrashes returns the crash plan the cluster injects: the spec's
// events in time order, one per process, with the budget F enforced —
// the same discipline the simulation kernel applies to over-long plans.
func EffectiveCrashes(spec scenario.Spec) map[int]int64 {
	events := make([]scenario.CrashEvent, len(spec.Crashes))
	copy(events, spec.Crashes)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	plan := make(map[int]int64)
	for _, e := range events {
		if len(plan) >= spec.F {
			break
		}
		if _, dup := plan[e.Proc]; dup {
			continue
		}
		plan[e.Proc] = e.At
	}
	return plan
}

// Run replays spec over a live cluster: start a registry, launch N nodes,
// sweep heartbeats until the cluster-wide credit count is stable at zero
// (or the timeout), direct everyone to drain, collect reports, and judge
// the run with the live oracle subset. An error means the harness itself
// failed; oracle violations and timeouts come back in the Result.
func Run(ctx context.Context, spec scenario.Spec, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if _, err := core.ByName(spec.Protocol); err != nil {
		// The wire codec speaks the asynchronous protocols' payloads; the
		// synchronous baselines are simulator-only by construction.
		return nil, fmt.Errorf("cluster: protocol %q is not runnable live (synchronous baselines are simulator-only)", spec.Protocol)
	}
	opts = opts.withDefaults()
	graph, err := spec.BuildGraph()
	if err != nil {
		return nil, err
	}

	reg, err := NewRegistry("127.0.0.1:0", time.Now().UnixNano())
	if err != nil {
		return nil, err
	}
	defer reg.Close()

	mode := ModeProcs
	launch := opts.Launch
	if launch == nil {
		mode = ModeInproc
		proto, err := scenario.ProtocolByName(spec.Protocol)
		if err != nil {
			return nil, err
		}
		// NoPool: nodes live on separate goroutines and payloads cross them.
		params := core.Params{N: spec.N, F: spec.F, Graph: graph, NoPool: true}
		nodes, err := core.NewNodes(proto, params, spec.Seed)
		if err != nil {
			return nil, err
		}
		launch = func(cfg NodeConfig, errs chan<- error) {
			nd := nodes[cfg.ID]
			go func() {
				if _, err := RunNode(cfg, nd); err != nil {
					errs <- err
				}
			}()
		}
	}

	crashes := EffectiveCrashes(spec)
	errs := make(chan error, spec.N)
	start := time.Now()
	for i := 0; i < spec.N; i++ {
		cfg := NodeConfig{
			ID: i, N: spec.N,
			RegistryAddr:   reg.Addr(),
			StepEvery:      opts.StepEvery,
			HeartbeatEvery: opts.Heartbeat,
			StartTimeout:   opts.Timeout,
			Graph:          graph,
			TraceCap:       opts.TraceCap,
			Seed:           spec.Seed,
		}
		if at, ok := crashes[i]; ok {
			cfg.CrashAfter = time.Duration(at) * opts.StepEvery
			if cfg.CrashAfter <= 0 {
				cfg.CrashAfter = time.Nanosecond // At = 0: crash before the first step
			}
		}
		if opts.Metrics {
			cfg.MetricsAddr = "127.0.0.1:0"
		}
		launch(cfg, errs)
	}

	res := &Result{Spec: spec, Mode: mode, StepEvery: opts.StepEvery}

	// Quiescence detection by distributed credit counting: every node
	// joined and stepped, every live node quiescent, global sent ==
	// received + drained, and the counters frozen across 3 consecutive
	// sweeps (the double-check against the count-then-quiesce race, with
	// heartbeat lag on top).
	sweep := time.NewTicker(opts.Heartbeat)
	defer sweep.Stop()
	deadline := time.NewTimer(opts.Timeout)
	defer deadline.Stop()
	// Stability tracks the credit counters only — never Steps: quiescent
	// nodes keep ticking (stepping is how they poll their inboxes), so
	// step counts grow forever by design.
	var prev [3]int64
	stable := 0
sweeps:
	for {
		select {
		case <-ctx.Done():
			res.TimedOut = true
			break sweeps
		case <-deadline.C:
			res.TimedOut = true
			break sweeps
		case err := <-errs:
			reg.SetDirective(DirectiveDrain)
			return res, err
		case <-sweep.C:
		}
		s := reg.Sweep()
		cur := [3]int64{s.Sent, s.Received, s.Drained}
		balanced := s.Joined == spec.N && s.Left == 0 && s.HaveAllHB &&
			s.AllQuiet && s.MinLiveSteps >= 1 &&
			s.Sent == s.Received+s.Drained
		if balanced && cur == prev {
			stable++
		} else {
			stable = 0
		}
		prev = cur
		if stable >= 3 {
			break sweeps
		}
	}
	res.QuiesceWall = time.Since(start)
	reg.SetDirective(DirectiveDrain)

	// Collect final reports (nodes hear the directive at their next
	// heartbeat, drain, report, leave).
	grace := time.NewTimer(10 * time.Second)
	defer grace.Stop()
collect:
	for reg.ReportCount() < spec.N {
		select {
		case <-grace.C:
			break collect
		case err := <-errs:
			return res, err
		case <-time.After(opts.Heartbeat):
		}
	}
	res.Wall = time.Since(start)
	res.Reports = reg.Reports()
	if len(res.Reports) == 0 {
		return res, fmt.Errorf("cluster: no node reports collected (stale: %v)", reg.Stale(opts.Heartbeat*4))
	}

	traces := make([][]LiveEvent, 0, len(res.Reports))
	for _, rp := range res.Reports {
		res.TotalSteps += rp.Steps
		res.TotalSent += rp.Sent
		res.TotalReceived += rp.Received
		res.TotalDrained += rp.Drained
		res.TotalOffEdge += rp.OffEdge
		res.TotalSendFails += rp.SendFails
		traces = append(traces, rp.Trace)
	}
	res.Trace = MergeTraces(traces...)
	res.Latency = Latencies(res.Trace)

	res.Verdicts = CheckLive(res)
	res.Passed = true
	for _, v := range res.Verdicts {
		if !v.OK {
			res.Passed = false
		}
	}
	res.Completed = scenario.CompletionViolation(res.Spec, newReportEvidence(res)) == ""
	return res, nil
}
