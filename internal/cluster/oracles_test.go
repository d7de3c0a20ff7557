package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
)

func spreadSpec() scenario.Spec {
	return scenario.Spec{
		Protocol: core.NamePush, N: 3, F: 1, D: 2, Delta: 2, Seed: 1,
		Schedule:       scenario.ScheduleSpec{Kind: scenario.SchedEvery},
		Delay:          scenario.DelaySpec{Kind: scenario.DelayFixed, Value: 1},
		Crashes:        []scenario.CrashEvent{{At: 5, Proc: 2}},
		ExpectComplete: true,
	}
}

// spreadResult builds a Result that satisfies every live oracle: 3-node
// push spreading, node 2 crashed on plan, all informed, credits balanced,
// traces consistent. Each violation test perturbs exactly one aspect.
func spreadResult() *cluster.Result {
	rep := func(id int, crashed bool) *cluster.NodeReport {
		return &cluster.NodeReport{
			ID: id, Steps: 10, Sent: 4, Received: 3, Drained: 1,
			Crashed: crashed, HasInformed: true, Informed: true, Quiescent: true,
		}
	}
	res := &cluster.Result{
		Spec:        spreadSpec(),
		Mode:        cluster.ModeInproc,
		StepEvery:   time.Millisecond,
		Wall:        20 * time.Millisecond,
		QuiesceWall: 15 * time.Millisecond,
		Reports:     []*cluster.NodeReport{rep(0, false), rep(1, false), rep(2, true)},
		Trace: []cluster.LiveEvent{
			{Kind: cluster.EventSend, T: 50, Proc: 2, Peer: 0},
			{Kind: cluster.EventCrash, T: 100, Proc: 2},
			{Kind: cluster.EventDeliver, T: 120, Proc: 0, Peer: 2, SentAt: 50},
		},
		TotalSteps: 30, TotalSent: 12, TotalReceived: 9, TotalDrained: 3,
	}
	return res
}

func verdictFor(t *testing.T, res *cluster.Result, oracle string) cluster.Verdict {
	t.Helper()
	for _, v := range cluster.CheckLive(res) {
		if v.Oracle == oracle {
			return v
		}
	}
	t.Fatalf("oracle %s missing from verdicts", oracle)
	return cluster.Verdict{}
}

func TestCheckLiveAllPass(t *testing.T) {
	for _, v := range cluster.CheckLive(spreadResult()) {
		if !v.OK {
			t.Errorf("oracle %s rejects a clean run: %s", v.Oracle, v.Detail)
		}
	}
}

func TestCheckLiveViolations(t *testing.T) {
	cases := []struct {
		oracle  string
		perturb func(*cluster.Result)
	}{
		{cluster.LiveOracleCrashBudget, func(r *cluster.Result) {
			r.Reports[1].Crashed = true // not in the crash plan
		}},
		{cluster.LiveOracleValidity, func(r *cluster.Result) {
			r.Reports[0].Steps = 0 // informed peers, but initiator never stepped
		}},
		{cluster.LiveOracleCompletion, func(r *cluster.Result) {
			r.Reports[1].Informed = false
		}},
		{cluster.LiveOracleCompletion, func(r *cluster.Result) {
			r.TimedOut = true
		}},
		{cluster.LiveOracleMessageEnvelope, func(r *cluster.Result) {
			r.TotalSent = 1 << 40
		}},
		{cluster.LiveOracleTimeEnvelope, func(r *cluster.Result) {
			r.QuiesceWall = 10 * time.Hour
		}},
		{cluster.LiveOracleOffEdge, func(r *cluster.Result) {
			r.TotalOffEdge = 2
		}},
		{cluster.LiveOraclePostCrash, func(r *cluster.Result) {
			r.Trace = append(r.Trace, cluster.LiveEvent{
				Kind: cluster.EventSend, T: 200, Proc: 2, Peer: 1,
			})
		}},
		{cluster.LiveOracleCreditBalance, func(r *cluster.Result) {
			r.TotalReceived--
		}},
		{cluster.LiveOracleCreditBalance, func(r *cluster.Result) {
			r.TotalSendFails = 1
		}},
	}
	for _, c := range cases {
		res := spreadResult()
		c.perturb(res)
		if v := verdictFor(t, res, c.oracle); v.OK {
			t.Errorf("oracle %s accepted a violating run", c.oracle)
		}
	}
}

// A crashed node that missed the rumor is not a completion failure —
// the promise only covers correct nodes.
func TestCheckLiveCompletionSkipsCrashed(t *testing.T) {
	res := spreadResult()
	res.Reports[2].Informed = false
	if v := verdictFor(t, res, cluster.LiveOracleCompletion); !v.OK {
		t.Errorf("completion blamed a crashed node: %s", v.Detail)
	}
	// Without the completion promise the oracle is mute even for correct
	// nodes (naive's legitimate failures).
	res = spreadResult()
	res.Reports[1].Informed = false
	res.Spec.ExpectComplete = false
	if v := verdictFor(t, res, cluster.LiveOracleCompletion); !v.OK {
		t.Errorf("completion fired without an ExpectComplete promise: %s", v.Detail)
	}
}

// A node whose final report never reached the registry left no evidence:
// the run fails completion on the missing report, but validity must not
// read the absent initiator's steps as zero and blame the protocol.
func TestCheckLiveMissingReport(t *testing.T) {
	gossip := spreadResult()
	gossip.Spec.Protocol = core.NameEARS
	for _, rp := range gossip.Reports {
		rp.HasInformed, rp.Informed = false, false
		rp.HasRumors, rp.Rumors = true, []int{0, 1}
	}
	for _, res := range []*cluster.Result{spreadResult(), gossip} {
		res.Reports = res.Reports[1:] // node 0's report is lost
		if v := verdictFor(t, res, cluster.LiveOracleValidity); !v.OK {
			t.Errorf("%s: validity blamed a lost report on the protocol: %s", res.Spec.Protocol, v.Detail)
		}
		if v := verdictFor(t, res, cluster.LiveOracleCompletion); v.OK || v.Detail != "only 2/3 node reports" {
			t.Errorf("%s: completion verdict %+v, want a missing-report failure", res.Spec.Protocol, v)
		}
	}
}

func TestCheckLiveAveragingCompletion(t *testing.T) {
	spec := scenario.Spec{
		Protocol: core.NameAverage, N: 2, F: 0, D: 2, Delta: 2, Seed: 1,
		Schedule:       scenario.ScheduleSpec{Kind: scenario.SchedEvery},
		Delay:          scenario.DelaySpec{Kind: scenario.DelayFixed, Value: 1},
		ExpectComplete: true,
	}
	rep := func(id int, initial, sum, weight float64) *cluster.NodeReport {
		return &cluster.NodeReport{
			ID: id, Steps: 5, HasAvg: true,
			Initial: initial, Sum: sum, Weight: weight, Quiescent: true,
		}
	}
	res := &cluster.Result{
		Spec: spec, Mode: cluster.ModeInproc, StepEvery: time.Millisecond,
		QuiesceWall: time.Millisecond,
		// Initials 1 and 3: both nodes converged on the mean 2.
		Reports: []*cluster.NodeReport{rep(0, 1, 2, 1), rep(1, 3, 4, 2)},
	}
	if v := verdictFor(t, res, cluster.LiveOracleCompletion); !v.OK {
		t.Fatalf("converged averaging run rejected: %s", v.Detail)
	}

	res.Reports[1].Sum = 40 // estimate 20, mean 2
	if v := verdictFor(t, res, cluster.LiveOracleCompletion); v.OK {
		t.Error("diverged averaging estimate accepted")
	}
	res.Reports[1].Sum, res.Reports[1].Weight = 0, 0
	if v := verdictFor(t, res, cluster.LiveOracleCompletion); v.OK {
		t.Error("non-positive weight accepted")
	}
}

func TestCheckLiveMajorityCompletion(t *testing.T) {
	spec := spreadSpec()
	spec.Protocol = core.NameTEARS
	spec.Majority = true
	rep := func(id int, rumors ...int) *cluster.NodeReport {
		return &cluster.NodeReport{
			ID: id, Steps: 5, HasRumors: true, Rumors: rumors, Quiescent: true,
		}
	}
	res := &cluster.Result{
		Spec: spec, Mode: cluster.ModeInproc, StepEvery: time.Millisecond,
		QuiesceWall: time.Millisecond,
		Reports:     []*cluster.NodeReport{rep(0, 0, 1), rep(1, 0, 1, 2), rep(2, 1, 2)},
	}
	if v := verdictFor(t, res, cluster.LiveOracleCompletion); !v.OK {
		t.Fatalf("majority-complete run rejected: %s", v.Detail)
	}
	res.Reports[0].Rumors = []int{0} // needs n/2+1 = 2
	if v := verdictFor(t, res, cluster.LiveOracleCompletion); v.OK {
		t.Error("sub-majority rumor count accepted")
	}
}

func TestEffectiveCrashes(t *testing.T) {
	spec := spreadSpec()
	spec.N, spec.F = 8, 2
	spec.Crashes = []scenario.CrashEvent{
		{At: 20, Proc: 1}, // over budget once the earlier events land
		{At: 5, Proc: 3},
		{At: 7, Proc: 3}, // duplicate process
		{At: 9, Proc: 0},
	}
	plan := cluster.EffectiveCrashes(spec)
	want := map[int]int64{3: 5, 0: 9}
	if len(plan) != len(want) {
		t.Fatalf("plan %v, want %v", plan, want)
	}
	for p, at := range want {
		if plan[p] != at {
			t.Errorf("proc %d crashes at %d, want %d", p, plan[p], at)
		}
	}
}

func TestMergeTracesAndLatencies(t *testing.T) {
	a := []cluster.LiveEvent{
		{Kind: cluster.EventSend, T: 30, Proc: 0, Peer: 1},
		{Kind: cluster.EventDeliver, T: 50, Proc: 0, Peer: 1, SentAt: 10},
	}
	b := []cluster.LiveEvent{
		{Kind: cluster.EventDeliver, T: 40, Proc: 1, Peer: 0, SentAt: 30},
		{Kind: cluster.EventDeliver, T: 35, Proc: 1, Peer: 0, SentAt: 40}, // clock skew: negative, excluded
	}
	merged := cluster.MergeTraces(a, b)
	if len(merged) != 4 {
		t.Fatalf("merged %d events, want 4", len(merged))
	}
	for i := 1; i < len(merged); i++ {
		if merged[i-1].T > merged[i].T {
			t.Fatalf("merged trace unsorted at %d: %+v", i, merged)
		}
	}
	lat := cluster.Latencies(merged)
	if lat.Count != 2 {
		t.Fatalf("latency count %d, want 2 (negative sample excluded)", lat.Count)
	}
	if lat.Max != 40 || lat.P50 != 10 {
		t.Errorf("latency p50=%d max=%d, want 10 and 40", lat.P50, lat.Max)
	}
}

func TestBenchLiveValidate(t *testing.T) {
	res := spreadResult()
	res.Verdicts = cluster.CheckLive(res)
	res.Passed = true
	b := cluster.NewBenchLive(res)
	if err := cluster.ValidateBenchLive(b); err != nil {
		t.Fatalf("clean artifact rejected: %v", err)
	}

	cases := []struct {
		name    string
		perturb func(*cluster.BenchLive)
	}{
		{"schema", func(b *cluster.BenchLive) { b.Schema = "repro.bench.live/v0" }},
		{"mode", func(b *cluster.BenchLive) { b.Mode = "imaginary" }},
		{"row-count", func(b *cluster.BenchLive) { b.Nodes = b.Nodes[:1] }},
		{"row-id", func(b *cluster.BenchLive) { b.Nodes[1].ID = 7 }},
		{"totals", func(b *cluster.BenchLive) { b.Messages++ }},
		{"crash-budget", func(b *cluster.BenchLive) {
			b.Nodes[0].Crashed = true
			b.Nodes[1].Crashed = true
		}},
		{"no-verdicts", func(b *cluster.BenchLive) { b.Verdicts = nil }},
		{"passed-lie", func(b *cluster.BenchLive) {
			vs := append([]cluster.Verdict(nil), b.Verdicts...)
			vs[0].OK = false
			b.Verdicts = vs
			b.Passed = true
		}},
		{"negative", func(b *cluster.BenchLive) { b.WallMS = -1 }},
	}
	for _, c := range cases {
		bad := cluster.NewBenchLive(res)
		c.perturb(&bad)
		if err := cluster.ValidateBenchLive(bad); err == nil {
			t.Errorf("%s: corrupted artifact validated", c.name)
		}
	}

	path := t.TempDir() + "/BENCH_live.json"
	if err := cluster.WriteBenchLive(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := cluster.ReadBenchLive(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != b.Label || got.Messages != b.Messages || len(got.Nodes) != len(b.Nodes) {
		t.Errorf("artifact round-trip mismatch: %+v vs %+v", got, b)
	}
}
