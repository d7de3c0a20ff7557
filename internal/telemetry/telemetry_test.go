package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestCurveBasic(t *testing.T) {
	c := NewCurve(16)
	c.Observe(0, 1)
	c.Observe(0, 3)
	c.Observe(5, 10)
	c.Observe(-1, 99) // ignored
	pts := c.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %v, want 2 entries", pts)
	}
	if pts[0].T != 0 || pts[0].V != 2 {
		t.Errorf("slot 0 = %+v, want t=0 mean=2", pts[0])
	}
	if pts[1].T != 5 || pts[1].V != 10 {
		t.Errorf("slot 5 = %+v, want t=5 v=10", pts[1])
	}
}

func TestCurveCompaction(t *testing.T) {
	c := NewCurve(16)
	for i := int64(0); i < 1000; i++ {
		c.Observe(i, float64(i))
	}
	if c.Stride() < 1000/16 {
		t.Errorf("stride = %d after 1000 observations into 16 slots", c.Stride())
	}
	if got := len(c.Points()); got > 16 {
		t.Errorf("points = %d, want <= 16", got)
	}
	// Total observation count must survive compaction exactly.
	var n int64
	for _, s := range c.slots {
		n += s.n
	}
	if n != 1000 {
		t.Errorf("total count = %d, want 1000", n)
	}
}

func TestCurveMergeStrides(t *testing.T) {
	// A fine curve merged into a coarse one (and vice versa) must preserve
	// exact sums and counts.
	fine := NewCurve(16)
	for i := int64(0); i < 10; i++ {
		fine.Observe(i, 1)
	}
	coarse := NewCurve(16)
	for i := int64(0); i < 640; i += 4 {
		coarse.Observe(i, 2)
	}
	total := func(c *Curve) (sum float64, n int64) {
		for _, s := range c.slots {
			sum += s.sum
			n += s.n
		}
		return
	}
	fs, fn := total(fine)
	cs, cn := total(coarse)

	merged := NewCurve(16)
	merged.Merge(fine)
	merged.Merge(coarse)
	ms, mn := total(merged)
	if ms != fs+cs || mn != fn+cn {
		t.Errorf("merged sum/count = %v/%d, want %v/%d", ms, mn, fs+cs, fn+cn)
	}

	// Merge order must not change the totals.
	merged2 := NewCurve(16)
	merged2.Merge(coarse)
	merged2.Merge(fine)
	m2s, m2n := total(merged2)
	if m2s != ms || m2n != mn {
		t.Errorf("merge order changed totals: %v/%d vs %v/%d", m2s, m2n, ms, mn)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	// Quantiles read out as power-of-two bucket upper bounds.
	if p50 := h.Quantile(0.5); p50 != 64 {
		t.Errorf("p50 = %d, want 64 (bucket upper bound covering rank 50)", p50)
	}
	if p100 := h.Quantile(1); p100 != 128 {
		t.Errorf("q1.0 = %d, want 128", p100)
	}
	snap := h.Snapshot()
	if snap.Min != 1 || snap.Max != 100 {
		t.Errorf("min/max = %d/%d, want 1/100", snap.Min, snap.Max)
	}
	// Buckets are cumulative and end at the total count.
	if last := snap.Buckets[len(snap.Buckets)-1]; last.Count != 100 {
		t.Errorf("last cumulative bucket = %+v, want count 100", last)
	}
	for i := 1; i < len(snap.Buckets); i++ {
		if snap.Buckets[i].Count < snap.Buckets[i-1].Count {
			t.Errorf("buckets not cumulative at %d: %+v", i, snap.Buckets)
		}
	}
}

func TestHistogramMergeMatchesSingle(t *testing.T) {
	a, b, all := NewHistogram(), NewHistogram(), NewHistogram()
	for i := int64(0); i < 50; i++ {
		a.Observe(i * 3)
		all.Observe(i * 3)
	}
	for i := int64(0); i < 70; i++ {
		b.Observe(i * 7)
		all.Observe(i * 7)
	}
	a.Merge(b)
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != all.Quantile(q) {
			t.Errorf("q%.2f: merged %d != single %d", q, a.Quantile(q), all.Quantile(q))
		}
	}
	if a.Count() != all.Count() {
		t.Errorf("merged count %d != %d", a.Count(), all.Count())
	}
	sa, sall := a.Snapshot(), all.Snapshot()
	if sa.Min != sall.Min || sa.Max != sall.Max || sa.Sum != sall.Sum {
		t.Errorf("merged extremes %+v != single %+v", sa, sall)
	}
}

func TestHistogramZeroAndHuge(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(-5)
	h.Observe(1 << 62)
	if got := h.Quantile(0); got != 0 {
		t.Errorf("q0 = %d, want 0 (zero bucket)", got)
	}
	if got := h.Quantile(1); got < 1<<62 {
		t.Errorf("q1 = %d, want >= 2^62", got)
	}
}

func TestLinearHistQuantiles(t *testing.T) {
	h := NewLinearHist()
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) / 100) // 0.00 .. 0.99
	}
	p50, p90, p99 := h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	if p50 < 0.50 || p50 > 0.52 {
		t.Errorf("p50 = %v, want ~0.51 (bucket upper edge)", p50)
	}
	// Overflow bucket reads out as the observed max.
	h.Observe(7.5)
	if got := h.Quantile(1); got != 7.5 {
		t.Errorf("q1 after overflow obs = %v, want 7.5", got)
	}
	// Negative observations clamp to zero rather than corrupting state.
	h.Observe(-1)
	if h.Quantile(0) != linearWidth {
		t.Errorf("q0 = %v, want first bucket edge %v", h.Quantile(0), linearWidth)
	}
}

func TestLinearHistMergeOrderIndependent(t *testing.T) {
	mk := func(vals ...float64) *LinearHist {
		h := NewLinearHist()
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	ab := mk(0.1, 0.2, 0.3)
	ab.Merge(mk(0.9, 1.1, 0.5))
	ba := mk(0.9, 1.1, 0.5)
	ba.Merge(mk(0.1, 0.2, 0.3))
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if ab.Quantile(q) != ba.Quantile(q) {
			t.Errorf("q%v differs by merge order: %v vs %v", q, ab.Quantile(q), ba.Quantile(q))
		}
	}
	if ab.Mean() != ba.Mean() || ab.Max() != ba.Max() || ab.Count() != ba.Count() {
		t.Errorf("stats differ by merge order")
	}
}

// feedRun drives a Recorder with a tiny synthetic event stream:
// p0 sends two messages at t=0, steps; both deliver to p1 and p2.
func feedRun(r *Recorder) {
	m1 := sim.Message{From: 0, To: 1, SentAt: 0, ReadyAt: 2}
	m2 := sim.Message{From: 0, To: 2, SentAt: 0, ReadyAt: 3}
	r.OnSend(m1)
	r.OnSend(m2)
	r.OnStep(0, 0)
	r.OnDeliver(m1, 2)
	r.OnStep(1, 2)
	r.OnCrash(2, 3)
	r.OnDeliver(m2, 3)
	r.OnStep(2, 3)
}

func TestRecorderCounters(t *testing.T) {
	r := NewRecorder(3)
	feedRun(r)
	s := r.Snapshot()
	if s.Steps != 3 || s.Sends != 2 || s.Delivers != 2 || s.Crashes != 1 {
		t.Errorf("counters = %+v", s)
	}
	if s.Reached != 2 {
		t.Errorf("reached = %d, want 2 (p1 and p2)", s.Reached)
	}
	if s.InFlight != 0 || s.MaxInFlight != 2 {
		t.Errorf("inflight = %d peak %d, want 0 peak 2", s.InFlight, s.MaxInFlight)
	}
	if s.LastEventAt != 3 {
		t.Errorf("last event = %d, want 3", s.LastEventAt)
	}
	// p0's step sent 2 messages; the other steps sent 0.
	if s.SendBand.Count != 3 || s.SendBand.Sum != 2 || s.SendBand.Max != 2 {
		t.Errorf("send band = %+v", s.SendBand)
	}
	// Latencies 2 and 3.
	if s.Latency.Count != 2 || s.Latency.Sum != 5 {
		t.Errorf("latency = %+v", s.Latency)
	}
	if len(s.ReachCurve) == 0 || len(s.InFlightCurve) == 0 {
		t.Errorf("curves empty: %+v", s)
	}
}

func TestRecorderMerge(t *testing.T) {
	a, b := NewRecorder(3), NewRecorder(3)
	feedRun(a)
	feedRun(b)
	a.Merge(b)
	s := a.Snapshot()
	if s.Steps != 6 || s.Sends != 4 || s.Delivers != 4 || s.Crashes != 2 {
		t.Errorf("merged counters = %+v", s)
	}
	if s.Reached != 4 {
		t.Errorf("merged reached = %d, want 4", s.Reached)
	}
	if s.SendBand.Count != 6 || s.Latency.Count != 4 {
		t.Errorf("merged histograms = %+v / %+v", s.SendBand, s.Latency)
	}
}

// TestRecorderEventAllocs pins the O(1)-per-event contract: after warm-up,
// observing events allocates nothing, so a Recorder can ride along on every
// run of a campaign without disturbing the kernel's allocation profile.
func TestRecorderEventAllocs(t *testing.T) {
	r := NewRecorder(8)
	m := sim.Message{From: 1, To: 2, SentAt: 100, ReadyAt: 102}
	// Warm up: let the curves allocate their slot backing arrays.
	for i := 0; i < 10_000; i++ {
		r.OnSend(m)
		r.OnDeliver(m, 102)
		r.OnStep(1, 100)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.OnSend(m)
		r.OnDeliver(m, 102)
		r.OnStep(1, 100)
		r.OnCrash(3, 101)
	})
	if allocs != 0 {
		t.Errorf("recorder allocates %.1f per event batch after warm-up, want 0", allocs)
	}
}

func TestWatchdog(t *testing.T) {
	w := NewWatchdog()
	clock := time.Unix(1000, 0)
	w.now = func() time.Time { return clock }

	w.CellStart(0, 7)
	w.CellStart(1, 8)
	clock = clock.Add(30 * time.Second)
	w.CellDone(1, 8, errors.New("boom"))

	if len(w.workers) != 2 {
		t.Fatalf("workers = %+v", w.workers)
	}
	if b := w.workers[0]; !b.active || b.cell != 7 || clock.Sub(b.since) != 30*time.Second {
		t.Errorf("worker 0 = %+v", b)
	}
	if b := w.workers[1]; b.active || b.since != clock {
		t.Errorf("worker 1 should be idle since its cell ended: %+v", b)
	}
	if done, errored := w.Done(); done != 1 || errored != 1 {
		t.Errorf("done = %d/%d, want 1/1", done, errored)
	}

	// Worker 0 has held cell 7 for 30s: stalled at a 20s threshold, and
	// warned exactly once per (worker, cell).
	stalled := w.stalled(20 * time.Second)
	if len(stalled) != 1 || stalled[0].Worker != 0 || stalled[0].Cell != 7 {
		t.Fatalf("stalled = %+v", stalled)
	}
	if again := w.stalled(20 * time.Second); len(again) != 0 {
		t.Errorf("second scan re-warned: %+v", again)
	}
	// Starting the next cell clears the warning.
	w.CellStart(0, 9)
	clock = clock.Add(time.Hour)
	if s := w.stalled(20 * time.Second); len(s) != 1 || s[0].Cell != 9 {
		t.Errorf("new cell stall = %+v", s)
	}
}

func TestWatchdogScanner(t *testing.T) {
	w := NewWatchdog()
	clock := time.Unix(0, 0)
	w.now = func() time.Time { return clock }
	w.CellStart(2, 42)
	clock = clock.Add(time.Hour)

	ch := make(chan WorkerStatus, 1)
	w.Start(time.Millisecond, time.Minute, func(s WorkerStatus) { ch <- s })
	select {
	case s := <-ch:
		if s.Worker != 2 || s.Cell != 42 {
			t.Errorf("stall = %+v", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scanner never fired")
	}
	w.Stop()
	w.Stop() // idempotent
}

func TestWriteOpenMetrics(t *testing.T) {
	r := NewRecorder(3)
	feedRun(r)
	var buf bytes.Buffer
	err := WriteOpenMetrics(&buf, r.Snapshot(),
		Gauge{Name: "pool_gets", Help: "h", Value: 1, Labels: map[string]string{"kind": "payload"}},
		Gauge{Name: "pool_gets", Help: "h", Value: 2, Labels: map[string]string{"kind": "rumors"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("missing # EOF terminator")
	}
	// One family header even with two label sets, and both samples present.
	if n := strings.Count(out, "# TYPE repro_pool_gets gauge"); n != 1 {
		t.Errorf("pool_gets TYPE header count = %d, want 1\n%s", n, out)
	}
	for _, want := range []string{
		"repro_sim_steps_total 3",
		"repro_sim_sends_total 2",
		`repro_pool_gets{kind="payload"} 1`,
		`repro_pool_gets{kind="rumors"} 2`,
		"repro_sim_send_band_bucket{le=\"+Inf\"} 3",
		"repro_sim_delivery_latency_steps_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	// No family header may repeat anywhere in the scrape.
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			if seen[line] {
				t.Errorf("repeated family header %q", line)
			}
			seen[line] = true
		}
	}
}

func TestWriteSnapshotNDJSON(t *testing.T) {
	r := NewRecorder(3)
	feedRun(r)
	var buf bytes.Buffer
	if err := WriteSnapshotNDJSON(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var head struct {
		Kind     string       `json:"kind"`
		Snapshot snapshotJSON `json:"snapshot"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
		t.Fatal(err)
	}
	if head.Kind != "snapshot" || head.Snapshot.Sends != 2 {
		t.Errorf("head = %+v", head)
	}
	if len(lines) < 2 {
		t.Fatal("no point lines")
	}
	for _, l := range lines[1:] {
		var p struct {
			Kind  string `json:"kind"`
			Curve string `json:"curve"`
		}
		if err := json.Unmarshal([]byte(l), &p); err != nil {
			t.Fatalf("bad point %q: %v", l, err)
		}
		if p.Kind != "point" || (p.Curve != "reach" && p.Curve != "inflight") {
			t.Errorf("point = %+v", p)
		}
	}
}

func TestChromeTracer(t *testing.T) {
	c := NewChromeTracer(0)
	m := sim.Message{From: 0, To: 1, SentAt: 0, ReadyAt: 2}
	c.OnSend(m)
	c.OnStep(0, 0)
	c.OnDeliver(m, 2)
	c.OnStep(1, 2)
	c.OnCrash(1, 3)
	// Delivery with no observed send is skipped, not mispaired.
	c.OnDeliver(sim.Message{From: 5, To: 6, SentAt: 9, ReadyAt: 9}, 9)

	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Tid  int    `json:"tid"`
			ID   int64  `json:"id"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	var sendID, flowID int64
	meta := 0
	lastMetaTid := -1
	for _, e := range out.TraceEvents {
		switch {
		case e.Ph == "M":
			meta++
			if e.Tid < lastMetaTid {
				t.Errorf("metadata not sorted by tid")
			}
			lastMetaTid = e.Tid
		case e.Ph == "s":
			sendID = e.ID
		case e.Ph == "f":
			flowID = e.ID
		}
	}
	if meta == 0 {
		t.Error("no thread_name metadata")
	}
	if sendID == 0 || sendID != flowID {
		t.Errorf("flow ids unpaired: send %d, flow %d", sendID, flowID)
	}
}

func TestChromeTracerCap(t *testing.T) {
	// maxEvents below the minimum floor of NewChromeTracer: construct via
	// the public API with a tiny cap.
	c := NewChromeTracer(2)
	for i := 0; i < 10; i++ {
		c.OnStep(sim.ProcID(i), sim.Time(i))
	}
	if c.Dropped() != 8 {
		t.Errorf("dropped = %d, want 8", c.Dropped())
	}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
}
