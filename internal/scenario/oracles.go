package scenario

import (
	"fmt"
	"math"

	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/syncgossip"
)

// Oracle is one pluggable invariant check over a finished execution. Check
// returns "" when the invariant holds, or a human-readable violation
// detail. Oracles must be pure observers: deterministic, no mutation.
type Oracle struct {
	// Name identifies the oracle in reports and in shrinking (the shrinker
	// preserves the violated oracle, not just "some failure").
	Name string
	// Doc is a one-line description for catalogs and documentation.
	Doc string
	// Check judges an execution.
	Check func(ex *Execution) string
}

// OracleViolation is one oracle's verdict on one execution.
type OracleViolation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

// Oracle names. The kernel-witness oracles share names with the checker's
// rules (sim.Rule*); the rest are scenario-level.
const (
	OracleCrashBudget      = sim.RuleCrashBudget
	OracleDelayClamp       = sim.RuleDelayClamp
	OraclePostCrash        = sim.RulePostCrash
	OracleScheduleGap      = sim.RuleScheduleGap
	OracleEventOrder       = sim.RuleEventOrder
	OracleCompletion       = "completion"
	OracleValidity         = "validity"
	OracleMessageEnvelope  = "message-envelope"
	OracleTimeEnvelope     = "time-envelope"
	OracleOffEdge          = "off-edge"
	OraclePoolEquivalence  = "pool-equivalence"
	OracleShardEquivalence = "shard-equivalence"
)

// Catalog returns the full oracle catalog, in the order checks run.
func Catalog() []Oracle {
	cat := []Oracle{
		checkerOracle(OracleCrashBudget, "at most f processes crash (kernel budget enforcement)"),
		checkerOracle(OracleDelayClamp, "every message delay lies in [1, d]"),
		checkerOracle(OraclePostCrash, "a crashed process never steps, sends, or receives"),
		checkerOracle(OracleScheduleGap, "no live process is starved past the schedule's gap bound"),
		checkerOracle(OracleEventOrder, "event times are monotone; deliveries respect ReadyAt"),
		{
			Name:  OracleCrashBudget + "-metrics",
			Doc:   "the kernel's own crash metric agrees with the budget and the witness",
			Check: checkCrashMetrics,
		},
		{
			Name:  OracleCompletion,
			Doc:   "scenarios with a completion promise finish, and every correct process holds what the promise requires (verified from node state, not the evaluator)",
			Check: checkCompletion,
		},
		{
			Name:  OracleValidity,
			Doc:   "every rumor held anywhere was actually initiated by a process that took a step",
			Check: checkValidity,
		},
		{
			Name:  OracleMessageEnvelope,
			Doc:   "message complexity stays within the paper's per-protocol bound times a slack factor",
			Check: checkMessageEnvelope,
		},
		{
			Name:  OracleTimeEnvelope,
			Doc:   "time complexity stays within the paper's per-protocol bound times a slack factor",
			Check: checkTimeEnvelope,
		},
		{
			Name:  OracleOffEdge,
			Doc:   "topology-aware protocols never send along non-edges",
			Check: checkOffEdge,
		},
		{
			Name:  OraclePoolEquivalence,
			Doc:   "a pooled run and its unpooled twin execute identical event streams (sampled)",
			Check: checkPoolEquivalence,
		},
		{
			Name:  OracleShardEquivalence,
			Doc:   "a serial run and its sharded-superstep twin execute identical event streams (sampled)",
			Check: checkShardEquivalence,
		},
	}
	return cat
}

// CheckAll runs the catalog over an execution and returns every violation,
// in catalog order. An empty slice is a clean run.
func CheckAll(ex *Execution) []OracleViolation {
	var out []OracleViolation
	for _, o := range Catalog() {
		if detail := o.Check(ex); detail != "" {
			out = append(out, OracleViolation{Oracle: o.Name, Detail: detail})
		}
	}
	return out
}

// checkerOracle surfaces the invariant checker's violations of one rule as
// a scenario oracle: the checker is the independent per-event witness, the
// oracle gives its verdict a stable name in reports and shrinking.
func checkerOracle(rule, doc string) Oracle {
	return Oracle{
		Name: rule,
		Doc:  doc,
		Check: func(ex *Execution) string {
			for _, v := range ex.Checker.Violations() {
				if v.Rule == rule {
					return v.Detail
				}
			}
			return ""
		},
	}
}

// checkCrashMetrics cross-checks three independent crash counts: the
// spec's budget, the kernel's metric, and the checker's event count.
func checkCrashMetrics(ex *Execution) string {
	if ex.Res.Crashes > ex.Spec.F {
		return fmt.Sprintf("kernel reports %d crashes, budget f=%d", ex.Res.Crashes, ex.Spec.F)
	}
	if ex.Res.Crashes != ex.Checker.Crashes() {
		return fmt.Sprintf("kernel reports %d crashes, event witness saw %d", ex.Res.Crashes, ex.Checker.Crashes())
	}
	return ""
}

// checkCompletion re-verifies the protocol's promise from raw node state.
// It deliberately re-implements the evaluator's judgment: if the evaluator
// ever regressed into accepting broken runs, this oracle still fires.
func checkCompletion(ex *Execution) string {
	if !ex.Spec.ExpectComplete {
		return ""
	}
	if ex.Res.TimedOut {
		return fmt.Sprintf("hung: no quiescence within horizon %d (messages=%d)", ex.Spec.MaxSteps, ex.Res.Messages)
	}
	if !ex.Res.Completed {
		return ex.runDetail()
	}
	return CompletionViolation(ex.Spec, (*simEvidence)(ex))
}

// checkValidity verifies no rumor appeared out of thin air.
func checkValidity(ex *Execution) string {
	return ValidityViolation(ex.Spec, (*simEvidence)(ex))
}

// Evidence is a finished run's final per-process state: all that the
// completion and validity judgments read. The simulator answers from its
// nodes and kernel view; the cluster from the nodes' final reports. Each
// protocol-state accessor reports ok=false when p does not hold that state.
type Evidence interface {
	// Reported is false when p left no final state to judge, e.g. a
	// cluster node whose report never reached the registry.
	Reported(p int) bool
	Crashed(p int) bool
	Steps(p int) int64
	Rumors(p int) (set *bitset.Set, ok bool)
	Informed(p int) (informed, ok bool)
	Average(p int) (sum, weight, initial float64, ok bool)
}

// CompletionViolation judges the protocol's completion promise over the
// evidence, regardless of s.ExpectComplete: "" when every process reported
// and every correct one holds what the promise requires — the informed bit
// for spreading, an estimate within ε of the mean for averaging, a
// majority of rumors for a majority spec, every correct rumor otherwise.
func CompletionViolation(s Spec, ev Evidence) string {
	reported := 0
	for p := 0; p < s.N; p++ {
		if ev.Reported(p) {
			reported++
		}
	}
	if reported < s.N {
		return fmt.Sprintf("only %d/%d node reports", reported, s.N)
	}
	spread, avg := isSpreadProto(s.Protocol), isAvgProto(s.Protocol)
	var mean, eps float64
	if avg {
		// The mean is over all n initial values: the domain is crash-free,
		// so every process contributes mass.
		for p := 0; p < s.N; p++ {
			_, _, initial, ok := ev.Average(p)
			if !ok {
				return fmt.Sprintf("node %d does not expose AverageState", p)
			}
			mean += initial
		}
		mean /= float64(s.N)
		eps = core.Params{N: s.N, F: s.F}.WithDefaults().AvgEpsilon
	}
	need := s.N/2 + 1 // majority threshold
	for p := 0; p < s.N; p++ {
		if ev.Crashed(p) {
			continue
		}
		switch {
		case spread:
			if inf, ok := ev.Informed(p); !ok {
				return fmt.Sprintf("node %d does not expose Informed", p)
			} else if !inf {
				return fmt.Sprintf("correct process %d is uninformed", p)
			}
		case avg:
			sum, weight, _, _ := ev.Average(p)
			if weight <= 0 {
				return fmt.Sprintf("correct process %d holds non-positive weight %v", p, weight)
			}
			if got := sum / weight; math.Abs(got-mean) > eps {
				return fmt.Sprintf("correct process %d estimates %v, mean is %v (ε=%v)", p, got, mean, eps)
			}
		default:
			set, ok := ev.Rumors(p)
			if !ok {
				return fmt.Sprintf("node %d is not a RumorHolder", p)
			}
			if s.Majority {
				if got := set.Count(); got < need {
					return fmt.Sprintf("correct process %d holds %d rumors, majority needs %d", p, got, need)
				}
				continue
			}
			for r := 0; r < s.N; r++ {
				if !set.Test(r) && !ev.Crashed(r) {
					return fmt.Sprintf("correct process %d lacks rumor of correct process %d", p, r)
				}
			}
		}
	}
	return ""
}

// ValidityViolation judges that no rumor appeared out of thin air: a held
// rumor's originator took at least one local step (or is the holder). Only
// processes with evidence are judged — a lost report is a completion
// failure, not proof that its process never stepped.
func ValidityViolation(s Spec, ev Evidence) string {
	spread := isSpreadProto(s.Protocol)
	for p := 0; p < s.N; p++ {
		if !ev.Reported(p) || (spread && p == 0) {
			continue
		}
		if spread {
			// Only process 0 initiates the single rumor, so any other
			// informed process implies the initiator took a step.
			if inf, ok := ev.Informed(p); !ok {
				return fmt.Sprintf("node %d does not expose Informed", p)
			} else if inf && ev.Reported(0) && ev.Steps(0) == 0 {
				return fmt.Sprintf("process %d is informed, but initiator 0 never took a step", p)
			}
			continue
		}
		set, ok := ev.Rumors(p)
		if !ok {
			continue
		}
		detail := ""
		set.ForEach(func(r int) bool {
			if r != p && ev.Reported(r) && ev.Steps(r) == 0 {
				detail = fmt.Sprintf("process %d holds rumor %d, but %d never took a step", p, r, r)
				return false
			}
			return true
		})
		if detail != "" {
			return detail
		}
	}
	return ""
}

// simEvidence reads Evidence off a finished simulation: the kernel's view
// for crashes and steps, the nodes for protocol state. The simulator holds
// every node, so every process has reported.
type simEvidence Execution

func (e *simEvidence) Reported(int) bool  { return true }
func (e *simEvidence) Crashed(p int) bool { return !e.view.Alive(sim.ProcID(p)) }
func (e *simEvidence) Steps(p int) int64  { return e.view.StepsTaken(sim.ProcID(p)) }

func (e *simEvidence) Rumors(p int) (*bitset.Set, bool) {
	if h, ok := e.nodes[p].(core.RumorHolder); ok {
		return h.RumorSet(), true
	}
	return nil, false
}

func (e *simEvidence) Informed(p int) (bool, bool) {
	if inf, ok := e.nodes[p].(core.Informed); ok {
		return inf.Informed(), true
	}
	return false, false
}

func (e *simEvidence) Average(p int) (sum, weight, initial float64, ok bool) {
	st, ok := e.nodes[p].(core.AverageState)
	if !ok {
		return 0, 0, 0, false
	}
	sum, weight = st.Estimate()
	return sum, weight, st.InitialValue(), true
}

// Envelope slack factors. The paper's bounds are asymptotic with unstated
// constants; at fuzzing scales (n ≤ 64) the envelopes are calibrated
// against the repository's measured constants with generous headroom, so
// they only fire on qualitative regressions (a protocol suddenly sending
// an extra factor of n, a completion time blowing past its epoch
// structure) rather than on concentration noise.
const (
	msgSlack  = 8.0
	timeSlack = 12.0
)

// MessageEnvelope returns the message bound for the spec's protocol, per
// Table 1 of the paper, scaled by msgSlack; returns 0 when no bound
// applies. Deterministic per-step protocols (trivial, naive, the sync
// baselines) get exact send-budget caps with no slack: their step budgets
// are deterministic, so exceeding them is a hard bug. Live runs layer
// wall-clock slack on top.
func MessageEnvelope(s Spec) float64 {
	n := float64(s.N)
	surv := float64(s.N - s.F)
	if surv < 1 {
		surv = 1
	}
	lg := float64(log2(s.N))
	dd := float64(s.D + s.Delta)
	switch s.Protocol {
	case core.NameTrivial:
		// Each process sends to its sampling universe at most once.
		return n * n
	case core.NameNaive:
		// reps = ⌈6·(n/(n−f))·log₂n⌉ sends per process, at most.
		return n * math.Ceil(6*n/surv*lg)
	case syncgossip.NameSyncEpidemic:
		// fanout 2 per round, rounds = max(2, ⌈3·(n/(n−f))·log₂n⌉).
		return n * 2 * math.Max(2, math.Ceil(3*n/surv*lg))
	case syncgossip.NameSyncDeterministic:
		// degree log₂n per round, rounds = max(2, ⌈2·(n/(n−f))·log₂n⌉).
		return n * lg * math.Max(2, math.Ceil(2*n/surv*lg))
	case core.NameEARS:
		// O(n·log³n·(d+δ)) (Theorem 5).
		return msgSlack * n * lg * lg * lg * dd
	case core.NameSEARS:
		// O(n^{2+ε}/(ε(n−f))·log n·(d+δ)) with ε = 1/2 (Theorem 7).
		return msgSlack * math.Pow(n, 2.5) / (0.5 * surv) * lg * dd
	case core.NameTEARS:
		// O(n^{7/4}·log²n) (Theorem 9).
		return msgSlack * math.Pow(n, 1.75) * lg * lg
	case core.NamePush, core.NamePull, core.NamePushPull:
		// Pushes are budgeted: at most B = PushBudget() per process, exact
		// and deterministic (push-only gets no slack). Pull traffic — one
		// solicitation per uninformed step plus at most one answer each —
		// is stochastic: O(n·log n) interaction rounds of span d+gap.
		b := 0.0
		if s.Protocol != core.NamePull {
			p := core.Params{N: s.N, F: s.F}.WithDefaults()
			b = n * float64(p.PushBudget())
		}
		if s.Protocol == core.NamePush {
			return b
		}
		gap := float64(s.maxGap())
		return b + msgSlack*2*n*lg*(float64(s.D)+gap)
	case core.NameAverage:
		// Exactly one send per budgeted round per process on a clique; on
		// the expander families a failed neighborhood draw skips the send,
		// so n·R is a hard deterministic cap either way.
		p := core.Params{N: s.N, F: s.F}.WithDefaults()
		return n * float64(p.AvgRounds())
	}
	return 0
}

// TimeEnvelope returns the completion-time bound for the spec in simulated
// steps, scaled by timeSlack; 0 when no bound applies. A live harness
// converts steps to wall clock via its pacing and applies its own slack.
func TimeEnvelope(s Spec) float64 {
	n := float64(s.N)
	surv := float64(s.N - s.F)
	if surv < 1 {
		surv = 1
	}
	lg := float64(log2(s.N))
	gap := float64(s.maxGap())
	dd := float64(s.D) + gap
	switch s.Protocol {
	case core.NameTrivial:
		// One step each, one delivery, one absorbing step: O(d+δ).
		return timeSlack * (dd + 4)
	case syncgossip.NameSyncEpidemic:
		return timeSlack * (math.Max(2, math.Ceil(3*n/surv*lg)) + dd + 4)
	case syncgossip.NameSyncDeterministic:
		return timeSlack * (math.Max(2, math.Ceil(2*n/surv*lg)) + dd + 4)
	case core.NameEARS:
		// O(n/(n−f)·log²n·(d+δ)) (Theorem 4).
		return timeSlack * (n/surv*lg*lg*dd + dd + 4)
	case core.NameSEARS:
		// O(n/(ε(n−f))·(d+δ)) (Theorem 7); a log factor of headroom.
		return timeSlack * (n/(0.5*surv)*lg*dd + dd + 4)
	case core.NameTEARS:
		// O(d+δ) to majority (Theorem 8); polylog headroom at small n.
		return timeSlack * (lg*lg*dd + dd + 4)
	case core.NamePush, core.NamePull, core.NamePushPull:
		// Spreading completes in O(log n) interaction rounds of span d+gap
		// (Panagiotou–Speidel); informed processes then drain their push
		// budget at one send per scheduled step.
		b := 0.0
		if s.Protocol != core.NamePull {
			p := core.Params{N: s.N, F: s.F}.WithDefaults()
			b = float64(p.PushBudget())
		}
		return timeSlack * (lg*dd + b*gap + dd + 4)
	case core.NameAverage:
		// Deterministic epoch structure: each process spends its R rounds
		// one per scheduled step (the R-th by (R+1)·gap), the last message
		// lands within d, and the receiver folds it at its next step —
		// with timeSlack headroom like the other deterministic schedules
		// (trivial, the sync baselines), so the tightness statistic is not
		// saturated by a structurally near-exact cap.
		p := core.Params{N: s.N, F: s.F}.WithDefaults()
		return timeSlack * (float64(p.AvgRounds())*gap + dd + gap + 4)
	}
	return 0
}

func checkMessageEnvelope(ex *Execution) string {
	bound := MessageEnvelope(ex.Spec)
	if bound <= 0 {
		return ""
	}
	if got := float64(ex.Res.Messages); got > bound {
		return fmt.Sprintf("%d messages exceed the %s envelope %.0f", ex.Res.Messages, ex.Spec.Protocol, bound)
	}
	return ""
}

func checkTimeEnvelope(ex *Execution) string {
	// Time bounds quantify completion; a run without the completion
	// promise (naive) or one that failed it (reported by the completion
	// oracle) has no meaningful completion time.
	if !ex.Spec.ExpectComplete || !ex.Res.Completed {
		return ""
	}
	bound := TimeEnvelope(ex.Spec)
	if bound <= 0 {
		return ""
	}
	if got := float64(ex.Res.TimeComplexity); got > bound {
		return fmt.Sprintf("completion time %d exceeds the %s envelope %.0f", ex.Res.TimeComplexity, ex.Spec.Protocol, bound)
	}
	return ""
}

// checkOffEdge requires topology-aware sampling: every generated protocol
// draws targets from its neighborhood, so the kernel's non-edge filter
// must never fire. (sync-deterministic's clique-wide circulant offsets are
// the known exception; the generator keeps it on the clique.)
func checkOffEdge(ex *Execution) string {
	if ex.Res.OffEdgeDrops > 0 {
		return fmt.Sprintf("%d sends dropped on non-edges of %s", ex.Res.OffEdgeDrops, ex.Spec.Topology)
	}
	return ""
}

// checkPoolEquivalence compares the pooled run's event stream against the
// unpooled twin's (when the twin ran): pooling must be invisible.
func checkPoolEquivalence(ex *Execution) string {
	if !ex.TwinRan {
		return ""
	}
	if ex.Digest != ex.TwinDigest || ex.Events != ex.TwinEvents {
		return fmt.Sprintf("pooled run digest %016x (%d events) != unpooled %016x (%d events)",
			ex.Digest, ex.Events, ex.TwinDigest, ex.TwinEvents)
	}
	return ""
}

// checkShardEquivalence compares the serial run's event stream against the
// sharded twin's (when the twin ran): sharding must be invisible.
func checkShardEquivalence(ex *Execution) string {
	if !ex.ShardTwinRan {
		return ""
	}
	if ex.Digest != ex.ShardDigest || ex.Events != ex.ShardEvents {
		return fmt.Sprintf("serial run digest %016x (%d events) != %d-shard run %016x (%d events)",
			ex.Digest, ex.Events, ex.ShardTwinShards, ex.ShardDigest, ex.ShardEvents)
	}
	return ""
}

// log2 returns ⌈log₂ n⌉, at least 1 (the repository's discrete log).
func log2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	if l < 1 {
		l = 1
	}
	return l
}
