package main

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// span is one timed call into a layer, recorded from outside the layer.
// Per-step calls are too many to keep one by one: they are summed into one
// aggregated span per repetition, with the number of calls in Count.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused this one; -1 for a repetition
	Rep    int    `json:"rep"`    // repetition id, shared by every span of one repetition
	// Count is the number of calls an aggregated span sums; 0 marks a plain
	// span of one call. An aggregated span starts where its parent starts and
	// lasts as long as its calls took together.
	Count int64 `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; the traced child writes them out at exit.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int
	rep   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), rep: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) top() int {
	if len(r.stack) == 0 {
		return -1
	}
	return r.stack[len(r.stack)-1]
}

// beginRep opens the root span of the next repetition.
func (r *recorder) beginRep(name string) int {
	r.rep++
	return r.begin(name)
}

func (r *recorder) begin(name string) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Start: r.now(), Parent: r.top(), Rep: r.rep})
	r.stack = append(r.stack, id)
	return id
}

func (r *recorder) end(id int) {
	if r.top() != id {
		panic(fmt.Sprintf("benchmark: span %q ended out of order", r.spans[id].Name))
	}
	r.spans[id].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// aggregate records count calls that together took d as one child of the
// open span.
func (r *recorder) aggregate(name string, d time.Duration, count int64) {
	parent := r.top()
	start := r.spans[parent].Start
	r.spans = append(r.spans, span{Name: name, Start: start, End: start + int64(d), Parent: parent, Rep: r.rep, Count: count})
}

// repSummary is one repetition's spans folded by name.
type repSummary struct {
	root  int
	total map[string]int64 // summed duration per span name
	self  map[string]int64 // the part of total that child spans do not cover
	// unaccounted lists what breaks the accounting: a span whose parent is
	// in another repetition, or children that outlast their parent.
	unaccounted []string
}

// summarize folds the spans of repetition rep.
func (r *recorder) summarize(rep int) repSummary {
	s := repSummary{root: -1, total: map[string]int64{}, self: map[string]int64{}}
	children := map[int]int64{}
	for i, sp := range r.spans {
		if sp.Rep != rep {
			continue
		}
		switch {
		case sp.Parent == -1:
			s.root = i
		case r.spans[sp.Parent].Rep != rep:
			s.unaccounted = append(s.unaccounted, sp.Name+": parent in another repetition")
		default:
			children[sp.Parent] += sp.dur()
		}
		s.total[sp.Name] += sp.dur()
	}
	if s.root < 0 {
		s.unaccounted = append(s.unaccounted, "no root span")
		return s
	}
	for i, sp := range r.spans {
		if sp.Rep != rep {
			continue
		}
		self := sp.dur() - children[i]
		if self < 0 {
			s.unaccounted = append(s.unaccounted, fmt.Sprintf("%s: children outlast it by %d ns", sp.Name, -self))
		}
		s.self[sp.Name] += self
	}
	return s
}

// ---- decorators: what the kernel is handed, wrapped ----

// Clocking every step of a large world would cost more than the steps do
// (two clock reads against a ~50 ns push-pull step), so above sampleAbove
// nodes only every sampleEvery-th node is decorated and clocked, and the
// sampled time is scaled by all steps ÷ sampled steps. Smaller worlds have
// every node decorated: their steps are few and heavy.
const (
	sampleAbove = 1024
	sampleEvery = 16
)

// stepClock sums the steps of the decorated nodes.
type stepClock struct {
	sampledSteps int64
	sampled      time.Duration
}

// estimate scales the sampled step time to steps steps, after taking off
// what the clock reads themselves added to every sample.
func (c *stepClock) estimate(steps int64) time.Duration {
	if c.sampledSteps == 0 {
		return 0
	}
	net := max(c.sampled-time.Duration(c.sampledSteps)*clockCost(), 0)
	return time.Duration(float64(net) * float64(steps) / float64(c.sampledSteps))
}

// clockCost measures what one time.Now/time.Since pair adds to the interval
// it brackets: the smallest of many empty intervals.
func clockCost() time.Duration {
	best := time.Hour
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		best = min(best, time.Since(t0))
	}
	return best
}

type timedNode struct {
	inner sim.Node
	clock *stepClock
}

func (n *timedNode) ID() sim.ProcID  { return n.inner.ID() }
func (n *timedNode) Quiescent() bool { return n.inner.Quiescent() }

func (n *timedNode) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	t0 := time.Now()
	n.inner.Step(now, inbox, out)
	n.clock.sampled += time.Since(t0)
	n.clock.sampledSteps++
}

// wrapNodes returns the node slice the kernel is handed: a copy of nodes
// with the clocked ones decorated.
func wrapNodes(nodes []sim.Node, clock *stepClock) []sim.Node {
	stride := 1
	if len(nodes) > sampleAbove {
		stride = sampleEvery
	}
	wrapped := append([]sim.Node(nil), nodes...)
	for i := 0; i < len(nodes); i += stride {
		wrapped[i] = &timedNode{inner: nodes[i], clock: clock}
	}
	return wrapped
}

// timedAdversary clocks the two per-time-step calls and counts the per-send
// one (a clock read per Delay would cost more than the call).
type timedAdversary struct {
	inner             sim.Adversary
	schedule, crashes time.Duration
	timeSteps         int64
	delayCalls        int64
}

func (a *timedAdversary) Schedule(t sim.Time, v sim.View, buf []sim.ProcID) []sim.ProcID {
	t0 := time.Now()
	buf = a.inner.Schedule(t, v, buf)
	a.schedule += time.Since(t0)
	a.timeSteps++
	return buf
}

func (a *timedAdversary) Crashes(t sim.Time, v sim.View, buf []sim.ProcID) []sim.ProcID {
	t0 := time.Now()
	buf = a.inner.Crashes(t, v, buf)
	a.crashes += time.Since(t0)
	return buf
}

func (a *timedAdversary) Delay(t sim.Time, from, to sim.ProcID) sim.Time {
	a.delayCalls++
	return a.inner.Delay(t, from, to)
}

// ObserveSend keeps an adaptive inner adversary informed: the kernel offers
// sends only to the adversary it was handed.
func (a *timedAdversary) ObserveSend(m sim.Message) {
	if o, ok := a.inner.(sim.SendObserver); ok {
		o.ObserveSend(m)
	}
}

// innerView shows an evaluator the undecorated nodes, so its assertions on
// node types (core.RumorHolder, *consensus.Node) still hold.
type innerView struct {
	sim.View
	nodes []sim.Node
}

func (v innerView) Node(p sim.ProcID) sim.Node { return v.nodes[p] }

type timedEvaluator struct {
	inner sim.Evaluator
	nodes []sim.Node
	rec   *recorder
	name  string
}

func (e *timedEvaluator) Evaluate(v sim.View) sim.Outcome {
	id := e.rec.begin(e.name)
	out := e.inner.Evaluate(innerView{View: v, nodes: e.nodes})
	e.rec.end(id)
	return out
}
