package cluster

import (
	"fmt"
	"time"

	"repro/internal/bitset"
	"repro/internal/scenario"
)

// Live oracle subset: the scenario catalog's invariants that remain
// judgeable without the simulator's event witness, re-derived from node
// reports and the merged wall-clock trace; completion and validity run the
// scenario package's judgments over the reports. The kernel-witness oracles
// (delay clamp, schedule gap, event order) do not transfer — real
// networks make no (d, δ) promise — but crash budget, validity,
// completion, the complexity envelopes (with extra wall-clock slack),
// off-edge hygiene, post-crash silence and credit balance all do.

// Live oracle names.
const (
	LiveOracleCrashBudget     = "live-crash-budget"
	LiveOracleValidity        = "live-validity"
	LiveOracleCompletion      = "live-completion"
	LiveOracleMessageEnvelope = "live-message-envelope"
	LiveOracleTimeEnvelope    = "live-time-envelope"
	LiveOracleOffEdge         = "live-off-edge"
	LiveOraclePostCrash       = "live-post-crash-silence"
	LiveOracleCreditBalance   = "live-credit-balance"
)

// Extra slack the live oracles grant over the simulator's envelopes: the
// Table 1 bounds quantify over the declared (d, δ) adversary, which TCP,
// the Go scheduler and heartbeat pacing only approximate. The message
// envelope inherits the spec bound almost unchanged (send budgets are
// protocol state, not timing); the time envelope absorbs scheduler noise,
// discovery, and the three-sweep quiescence confirmation.
const (
	liveMsgSlack  = 3.0
	liveTimeSlack = 8.0
	liveTimeGrace = 2 * time.Second
)

// Verdict is one live oracle's judgment of a finished run.
type Verdict struct {
	Oracle string `json:"oracle"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// CheckLive judges a finished run against the live oracle subset and
// returns every verdict in catalog order.
func CheckLive(res *Result) []Verdict {
	checks := []struct {
		name  string
		check func(*Result) string
	}{
		{LiveOracleCrashBudget, checkLiveCrashBudget},
		{LiveOracleValidity, checkLiveValidity},
		{LiveOracleCompletion, checkLiveCompletion},
		{LiveOracleMessageEnvelope, checkLiveMessageEnvelope},
		{LiveOracleTimeEnvelope, checkLiveTimeEnvelope},
		{LiveOracleOffEdge, checkLiveOffEdge},
		{LiveOraclePostCrash, checkLivePostCrash},
		{LiveOracleCreditBalance, checkLiveCreditBalance},
	}
	out := make([]Verdict, 0, len(checks))
	for _, c := range checks {
		detail := c.check(res)
		out = append(out, Verdict{Oracle: c.name, OK: detail == "", Detail: detail})
	}
	return out
}

// checkLiveCrashBudget: at most f nodes crashed, and only nodes the
// spec's crash plan names.
func checkLiveCrashBudget(res *Result) string {
	planned := make(map[int]bool)
	for _, e := range res.Spec.Crashes {
		planned[e.Proc] = true
	}
	crashed := 0
	for _, rp := range res.Reports {
		if !rp.Crashed {
			continue
		}
		crashed++
		if !planned[rp.ID] {
			return fmt.Sprintf("node %d crashed but is not in the spec's crash plan", rp.ID)
		}
	}
	if crashed > res.Spec.F {
		return fmt.Sprintf("%d nodes crashed, budget f=%d", crashed, res.Spec.F)
	}
	return ""
}

// checkLiveValidity: no rumor out of thin air, judged by the simulator's
// own validity judgment over the reports.
func checkLiveValidity(res *Result) string {
	return scenario.ValidityViolation(res.Spec, newReportEvidence(res))
}

// checkLiveCompletion: scenarios with a completion promise quiesce in
// time and every correct node holds what the promise requires, judged by
// the simulator's own completion judgment over the reports.
func checkLiveCompletion(res *Result) string {
	if !res.Spec.ExpectComplete {
		return ""
	}
	if res.TimedOut {
		return fmt.Sprintf("cluster did not quiesce (sent=%d received=%d drained=%d)",
			res.TotalSent, res.TotalReceived, res.TotalDrained)
	}
	return scenario.CompletionViolation(res.Spec, newReportEvidence(res))
}

// reportEvidence is scenario.Evidence over the nodes' final reports,
// indexed by node ID; a node whose report never arrived has none.
type reportEvidence struct {
	reports []*NodeReport
	rumors  []*bitset.Set
}

func newReportEvidence(res *Result) *reportEvidence {
	n := res.Spec.N
	ev := &reportEvidence{reports: make([]*NodeReport, n), rumors: make([]*bitset.Set, n)}
	for _, rp := range res.Reports {
		if rp.ID < 0 || rp.ID >= n {
			continue
		}
		ev.reports[rp.ID] = rp
		if rp.HasRumors {
			set := bitset.New(n)
			for _, r := range rp.Rumors {
				set.Add(r)
			}
			ev.rumors[rp.ID] = set
		}
	}
	return ev
}

func (e *reportEvidence) Reported(p int) bool              { return e.reports[p] != nil }
func (e *reportEvidence) Crashed(p int) bool               { return e.reports[p].Crashed }
func (e *reportEvidence) Steps(p int) int64                { return e.reports[p].Steps }
func (e *reportEvidence) Rumors(p int) (*bitset.Set, bool) { return e.rumors[p], e.rumors[p] != nil }
func (e *reportEvidence) Informed(p int) (bool, bool) {
	return e.reports[p].Informed, e.reports[p].HasInformed
}

func (e *reportEvidence) Average(p int) (sum, weight, initial float64, ok bool) {
	rp := e.reports[p]
	return rp.Sum, rp.Weight, rp.Initial, rp.HasAvg
}

// checkLiveMessageEnvelope: total sends stay within the spec's Table 1
// bound times the live slack. Send budgets are protocol state — pacing
// does not change how many messages a node may emit — so the live bound
// tracks the simulator's closely.
func checkLiveMessageEnvelope(res *Result) string {
	bound := scenario.MessageEnvelope(res.Spec)
	if bound <= 0 {
		return ""
	}
	if allowed := bound * liveMsgSlack; float64(res.TotalSent) > allowed {
		return fmt.Sprintf("%d messages sent, live envelope allows %.0f", res.TotalSent, allowed)
	}
	return ""
}

// checkLiveTimeEnvelope: wall clock to quiescence stays within the
// spec's step bound converted at the run's pacing, times the live slack,
// plus a fixed grace for discovery and quiescence confirmation.
func checkLiveTimeEnvelope(res *Result) string {
	bound := scenario.TimeEnvelope(res.Spec)
	if bound <= 0 {
		return ""
	}
	if res.TimedOut {
		return "cluster did not quiesce before the driver timeout"
	}
	allowed := time.Duration(bound*liveTimeSlack*float64(res.StepEvery)) + liveTimeGrace
	if res.QuiesceWall > allowed {
		return fmt.Sprintf("quiesced after %v, live envelope allows %v", res.QuiesceWall, allowed)
	}
	return ""
}

// checkLiveOffEdge: topology-aware protocols never attempt a send along a
// non-edge (the node runtime counts attempts before filtering them).
func checkLiveOffEdge(res *Result) string {
	if res.TotalOffEdge > 0 {
		return fmt.Sprintf("%d sends attempted on non-edges of %s", res.TotalOffEdge, res.Spec.Topology)
	}
	return ""
}

// checkLivePostCrash: no node sends after its own crash. Both events come
// from the same node's local trace, so their order is exact even though
// cross-node clocks only share the host clock.
func checkLivePostCrash(res *Result) string {
	crashAt := make(map[int32]int64)
	for _, e := range res.Trace {
		if e.Kind == EventCrash {
			crashAt[e.Proc] = e.T
		}
	}
	for _, e := range res.Trace {
		if e.Kind != EventSend {
			continue
		}
		if t, ok := crashAt[e.Proc]; ok && e.T > t {
			return fmt.Sprintf("node %d sent to %d at t=%dns, after crashing at t=%dns", e.Proc, e.Peer, e.T, t)
		}
	}
	return ""
}

// checkLiveCreditBalance: the cluster-wide credit count closed — every
// send was eventually received or drained, and none failed in transport.
// This is the harness's own soundness check; a violation means lost
// messages, not a protocol bug.
func checkLiveCreditBalance(res *Result) string {
	if res.TotalSendFails > 0 {
		return fmt.Sprintf("%d sends failed in transport", res.TotalSendFails)
	}
	if res.TotalSent != res.TotalReceived+res.TotalDrained {
		return fmt.Sprintf("credit imbalance: sent=%d received=%d drained=%d",
			res.TotalSent, res.TotalReceived, res.TotalDrained)
	}
	return ""
}
