// Package telemetry is the instrumentation layer of the simulation stack:
// streaming, mergeable, O(1)-per-event samplers that turn a run's raw
// event stream into the curves the paper's claims are actually about —
// informed-count over time, in-flight message pressure, per-step send
// bands (Lemma 8), delivery-latency distributions — plus exporters that
// render them as NDJSON snapshot lines, OpenMetrics text (scrapeable by
// any Prometheus-compatible collector), Chrome trace-event JSON (openable
// in Perfetto as a real space–time diagram) and an ASCII timeline.
//
// The layer is strictly observation-only and zero-overhead when disabled:
// every sampler rides the existing sim.Tracer seam (compose with sim.Tee),
// so a nil tracer keeps the kernel's allocation-free fast path untouched,
// and an attached Recorder allocates nothing per event after warm-up. No
// sampler consumes randomness or mutates anything it observes, so golden
// digests, bench baselines and fuzz sessions are byte-identical with
// telemetry on or off — the determinism tests pin this.
//
// The pieces:
//
//   - Recorder: the per-run sampler bundle (counters, reach and in-flight
//     curves, send-band and latency histograms). Mergeable across runs.
//   - Curve: a bounded streaming time series that decimates itself (stride
//     doubling) instead of growing, so a 10⁶-step run costs the same
//     memory as a 10²-step one.
//   - Histogram / LinearHist: mergeable power-of-two and fixed-width
//     histograms with deterministic quantile readout.
//   - WriteSnapshotNDJSON, WriteOpenMetrics, ChromeTracer, Timeline: the
//     export formats.
//   - Watchdog: per-worker heartbeat telemetry for internal/runner grids,
//     with stuck-worker detection for long campaigns (nightly fuzz).
package telemetry

import "repro/internal/sim"

// curveSlots bounds each Recorder curve's memory; see Curve.
const curveSlots = 512

// Recorder is a sim.Tracer that folds a run's event stream into streaming
// samplers. All bookkeeping is O(1) per event and allocation-free after
// the first few samples, so a Recorder can ride along on every run of a
// large campaign. Recorders are single-goroutine, like the worlds they
// observe; merge per-run Recorders afterwards for campaign-level curves.
type Recorder struct {
	n int

	steps, sends, delivers, crashes int64
	inflight, maxInflight           int64
	lastEvent                       sim.Time

	// reach[p] marks processes that have received at least one message —
	// the O(1)-per-event proxy for the informed-count curve (a process
	// cannot learn a foreign rumor without a delivery; its own rumor is
	// known from the start).
	reach   []bool
	reached int64

	reachCurve    *Curve // reached processes over time
	inflightCurve *Curve // in-flight messages over time

	sendBand *Histogram // messages sent per (process, local step) — Lemma 8
	latency  *Histogram // delivery latency in steps (deliver t − SentAt)

	curSends []int32 // sends of the in-progress step, per process
}

var _ sim.Tracer = (*Recorder)(nil)

// NewRecorder returns a Recorder for runs of n processes.
func NewRecorder(n int) *Recorder {
	return &Recorder{
		n:             n,
		reach:         make([]bool, n),
		reachCurve:    NewCurve(curveSlots),
		inflightCurve: NewCurve(curveSlots),
		sendBand:      NewHistogram(),
		latency:       NewHistogram(),
		curSends:      make([]int32, n),
	}
}

// tick records the time-indexed gauges whenever the event clock advances.
func (r *Recorder) tick(t sim.Time) {
	if t > r.lastEvent {
		r.lastEvent = t
	}
	r.reachCurve.Observe(int64(t), float64(r.reached))
	r.inflightCurve.Observe(int64(t), float64(r.inflight))
}

// OnStep implements sim.Tracer. The kernel fires OnStep after the step's
// sends, so curSends[p] holds exactly that step's send count.
func (r *Recorder) OnStep(p sim.ProcID, t sim.Time) {
	r.steps++
	if int(p) >= 0 && int(p) < r.n {
		r.sendBand.Observe(int64(r.curSends[p]))
		r.curSends[p] = 0
	}
	r.tick(t)
}

// OnSend implements sim.Tracer.
func (r *Recorder) OnSend(m sim.Message) {
	r.sends++
	r.inflight++
	if r.inflight > r.maxInflight {
		r.maxInflight = r.inflight
	}
	if int(m.From) >= 0 && int(m.From) < r.n {
		r.curSends[m.From]++
	}
	r.tick(m.SentAt)
}

// OnDeliver implements sim.Tracer.
func (r *Recorder) OnDeliver(m sim.Message, t sim.Time) {
	r.delivers++
	r.inflight--
	r.latency.Observe(int64(t - m.SentAt))
	if p := int(m.To); p >= 0 && p < r.n && !r.reach[p] {
		r.reach[p] = true
		r.reached++
	}
	r.tick(t)
}

// OnCrash implements sim.Tracer.
func (r *Recorder) OnCrash(p sim.ProcID, t sim.Time) {
	r.crashes++
	r.tick(t)
}

// Merge folds another run's recorder into this one: counters add, curves
// align strides and accumulate means, histograms add bucket-wise. Merging
// recorders of different n is allowed (a campaign over mixed sizes); the
// reach curve then aggregates absolute counts.
func (r *Recorder) Merge(o *Recorder) {
	r.steps += o.steps
	r.sends += o.sends
	r.delivers += o.delivers
	r.crashes += o.crashes
	r.reached += o.reached
	if o.maxInflight > r.maxInflight {
		r.maxInflight = o.maxInflight
	}
	if o.lastEvent > r.lastEvent {
		r.lastEvent = o.lastEvent
	}
	r.reachCurve.Merge(o.reachCurve)
	r.inflightCurve.Merge(o.inflightCurve)
	r.sendBand.Merge(o.sendBand)
	r.latency.Merge(o.latency)
}

// Snapshot is the exportable view of a Recorder: plain values, detached
// from the live sampler state.
type Snapshot struct {
	// Processes is the run's n (or the first run's, after merging).
	Processes int
	// Event counters.
	Steps, Sends, Delivers, Crashes int64
	// Reached counts processes that received at least one message.
	Reached int64
	// InFlight is the current send−deliver imbalance; MaxInFlight its peak.
	InFlight, MaxInFlight int64
	// LastEventAt is the latest event time observed.
	LastEventAt sim.Time
	// ReachCurve and InFlightCurve are the time-indexed gauge series.
	ReachCurve, InFlightCurve []Point
	// SendBand is the per-(process, step) send-count distribution (the
	// paper's Lemma 8 band: tears sends 0 or a−κ..a+κ per step).
	SendBand HistSnapshot
	// Latency is the delivery-latency distribution in steps.
	Latency HistSnapshot
}

// Snapshot captures the recorder's current state.
func (r *Recorder) Snapshot() Snapshot {
	return Snapshot{
		Processes:     r.n,
		Steps:         r.steps,
		Sends:         r.sends,
		Delivers:      r.delivers,
		Crashes:       r.crashes,
		Reached:       r.reached,
		InFlight:      r.inflight,
		MaxInFlight:   r.maxInflight,
		LastEventAt:   r.lastEvent,
		ReachCurve:    r.reachCurve.Points(),
		InFlightCurve: r.inflightCurve.Points(),
		SendBand:      r.sendBand.Snapshot(),
		Latency:       r.latency.Snapshot(),
	}
}
