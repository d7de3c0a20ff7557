package scenario

import (
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/core"
)

// fakeProc is one process's evidence in the judgment table.
type fakeProc struct {
	missing, crashed      bool
	steps                 int64
	rumors                []int // nil: holds no rumor set
	hasInformed, informed bool
	hasAvg                bool
	sum, weight, initial  float64
}

type fakeEvidence []fakeProc

func (e fakeEvidence) Reported(p int) bool { return !e[p].missing }
func (e fakeEvidence) Crashed(p int) bool  { return e[p].crashed }
func (e fakeEvidence) Steps(p int) int64   { return e[p].steps }

func (e fakeEvidence) Rumors(p int) (*bitset.Set, bool) {
	if e[p].rumors == nil {
		return nil, false
	}
	set := bitset.New(len(e))
	for _, r := range e[p].rumors {
		set.Add(r)
	}
	return set, true
}

func (e fakeEvidence) Informed(p int) (bool, bool) { return e[p].informed, e[p].hasInformed }

func (e fakeEvidence) Average(p int) (float64, float64, float64, bool) {
	return e[p].sum, e[p].weight, e[p].initial, e[p].hasAvg
}

// TestSharedJudgments drives CompletionViolation and ValidityViolation —
// the judgments both the simulator and the cluster run — over every
// protocol family and outcome: a clean run, a crashed process whose state
// the promise does not cover, and a violation.
func TestSharedJudgments(t *testing.T) {
	all := []int{0, 1, 2}
	gossip := func(sets ...[]int) fakeEvidence {
		ev := make(fakeEvidence, len(sets))
		for p, s := range sets {
			ev[p] = fakeProc{steps: 1, rumors: s}
		}
		return ev
	}
	spread := func(informed ...bool) fakeEvidence {
		ev := make(fakeEvidence, len(informed))
		for p, inf := range informed {
			ev[p] = fakeProc{steps: 1, hasInformed: true, informed: inf}
		}
		return ev
	}
	// Initial values 1, 2, 3: the mean every estimate must reach is 2.
	avg := func(estimates ...float64) fakeEvidence {
		ev := make(fakeEvidence, len(estimates))
		for p, est := range estimates {
			ev[p] = fakeProc{steps: 1, hasAvg: true, sum: 2 * est, weight: 2, initial: float64(p + 1)}
		}
		return ev
	}
	with := func(ev fakeEvidence, p int, change func(*fakeProc)) fakeEvidence {
		change(&ev[p])
		return ev
	}
	crashed := func(q *fakeProc) { q.crashed = true }
	unstepped := func(q *fakeProc) { q.steps = 0 }
	lost := func(q *fakeProc) { *q = fakeProc{missing: true} }
	weightless := func(q *fakeProc) { q.sum, q.weight = 0, 0 }

	spec := func(proto string, majority bool) Spec {
		return Spec{Protocol: proto, N: 3, F: 1, Majority: majority}
	}
	ears, tears := spec(core.NameEARS, false), spec(core.NameTEARS, true)
	push, average := spec(core.NamePush, false), spec(core.NameAverage, false)

	cases := []struct {
		name       string
		spec       Spec
		ev         fakeEvidence
		completion string // "" = the promise holds; else a substring of the violation
		validity   string
	}{
		{"all-rumors/pass", ears, gossip(all, all, all), "", ""},
		{"all-rumors/crashed-skipped", ears, with(gossip([]int{0, 1}, []int{0, 1}, []int{2}), 2, crashed), "", ""},
		{"all-rumors/violation", ears, gossip(all, []int{1, 2}, all), "correct process 1 lacks rumor of correct process 0", ""},
		{"all-rumors/invalid", ears, with(gossip(all, all, all), 2, unstepped), "", "process 0 holds rumor 2, but 2 never took a step"},

		{"majority/pass", tears, gossip([]int{0, 1}, []int{1, 2}, []int{0, 2}), "", ""},
		{"majority/crashed-skipped", tears, with(gossip([]int{0, 1}, []int{1, 2}, []int{2}), 2, crashed), "", ""},
		{"majority/violation", tears, gossip([]int{0}, []int{1, 2}, []int{0, 2}), "correct process 0 holds 1 rumors, majority needs 2", ""},

		{"spread/pass", push, spread(true, true, true), "", ""},
		{"spread/crashed-skipped", push, with(spread(true, true, false), 2, crashed), "", ""},
		{"spread/violation", push, spread(true, false, true), "correct process 1 is uninformed", ""},
		{"spread/invalid", push, with(spread(true, true, true), 0, unstepped), "", "process 1 is informed, but initiator 0 never took a step"},

		{"averaging/pass", average, avg(2, 2, 2), "", ""},
		{"averaging/crashed-skipped", average, with(avg(2, 2, 50), 2, crashed), "", ""},
		{"averaging/violation", average, avg(2, 20, 2), "correct process 1 estimates 20, mean is 2", ""},
		{"averaging/non-positive-weight", average, with(avg(2, 2, 2), 1, weightless), "correct process 1 holds non-positive weight 0", ""},

		// A lost report fails completion but leaves validity nothing to
		// judge: the absent process's steps are unknown, not zero.
		{"all-rumors/lost-report", ears, with(gossip(all, all, all), 0, lost), "only 2/3 node reports", ""},
		{"spread/lost-report", push, with(spread(true, true, true), 0, lost), "only 2/3 node reports", ""},
	}
	for _, c := range cases {
		judged := []struct{ what, got, want string }{
			{"completion", CompletionViolation(c.spec, c.ev), c.completion},
			{"validity", ValidityViolation(c.spec, c.ev), c.validity},
		}
		for _, j := range judged {
			if (j.want == "") != (j.got == "") || !strings.Contains(j.got, j.want) {
				t.Errorf("%s: %s verdict %q, want %q", c.name, j.what, j.got, j.want)
			}
		}
	}
}

// The simulator adapter reads node state in place: judging a finished run
// allocates nothing, so the fuzzer's per-scenario CheckAll stays as cheap
// as before the judgments were shared.
func TestSimJudgmentsAllocateNothing(t *testing.T) {
	for _, proto := range []string{core.NameEARS, core.NamePushPull, core.NameAverage} {
		spec := Spec{
			Protocol: proto, N: 16, D: 2, Delta: 2, Seed: 3,
			Schedule: ScheduleSpec{Kind: SchedEvery},
			Delay:    DelaySpec{Kind: DelayFixed, Value: 1},
			MaxSteps: 20000, ExpectComplete: true,
		}
		ex, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		if d := checkCompletion(ex) + checkValidity(ex); d != "" {
			t.Fatalf("%s: clean run judged a violation: %s", proto, d)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			checkCompletion(ex)
			checkValidity(ex)
		}); allocs != 0 {
			t.Errorf("%s: judging a run allocates %v times", proto, allocs)
		}
	}
}
