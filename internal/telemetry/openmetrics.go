package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Gauge is one extra scalar metric to export alongside a Snapshot —
// kernel-side stats (arena occupancy, pool hit rates) that live outside
// the Recorder but belong in the same scrape.
type Gauge struct {
	// Name is the metric name without the "repro_" prefix, e.g.
	// "sim_arena_blocks_allocated". Use snake_case.
	Name string
	// Help is the one-line HELP text.
	Help string
	// Value is the gauge reading.
	Value float64
	// Labels are optional label pairs, rendered sorted by key.
	Labels map[string]string
}

// WriteOpenMetrics renders a Snapshot (plus any extra gauges) in the
// OpenMetrics text format — the format each cluster node serves at
// /metrics, and directly ingestible by Prometheus-compatible collectors.
// The output ends with the mandatory "# EOF" terminator.
func WriteOpenMetrics(w io.Writer, snap Snapshot, extra ...Gauge) error {
	ew := &errWriter{w: w}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(ew, "# TYPE repro_%s counter\n# HELP repro_%s %s\nrepro_%s_total %d\n",
			name, name, help, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(ew, "# TYPE repro_%s gauge\n# HELP repro_%s %s\nrepro_%s %s\n",
			name, name, help, name, formatFloat(v))
	}

	counter("sim_steps", "Local process steps simulated.", snap.Steps)
	counter("sim_sends", "Messages sent.", snap.Sends)
	counter("sim_delivers", "Messages delivered.", snap.Delivers)
	counter("sim_crashes", "Process crashes injected.", snap.Crashes)
	gauge("sim_processes", "Processes in the run.", float64(snap.Processes))
	gauge("sim_reached_processes", "Processes that received at least one message.", float64(snap.Reached))
	gauge("sim_inflight_messages", "Messages sent but not yet delivered.", float64(snap.InFlight))
	gauge("sim_inflight_messages_peak", "Peak in-flight message count.", float64(snap.MaxInFlight))
	gauge("sim_last_event_time", "Latest simulated event time.", float64(snap.LastEventAt))

	histogram(ew, "sim_send_band", "Messages sent per (process, local step).", snap.SendBand)
	histogram(ew, "sim_delivery_latency_steps", "Delivery latency in simulated steps.", snap.Latency)

	// Extra gauges: one TYPE/HELP block per metric family, even when a
	// name recurs with different label sets (the format forbids repeated
	// family headers).
	seen := map[string]bool{}
	for _, g := range extra {
		if !seen[g.Name] {
			seen[g.Name] = true
			fmt.Fprintf(ew, "# TYPE repro_%s gauge\n# HELP repro_%s %s\n", g.Name, g.Name, g.Help)
			for _, h := range extra {
				if h.Name == g.Name {
					fmt.Fprintf(ew, "repro_%s%s %s\n", h.Name, formatLabels(h.Labels), formatFloat(h.Value))
				}
			}
		}
	}
	fmt.Fprintf(ew, "# EOF\n")
	return ew.err
}

// histogram renders a HistSnapshot as a cumulative-bucket histogram.
func histogram(w io.Writer, name, help string, h HistSnapshot) {
	fmt.Fprintf(w, "# TYPE repro_%s histogram\n# HELP repro_%s %s\n", name, name, help)
	for _, b := range h.Buckets {
		fmt.Fprintf(w, "repro_%s_bucket{le=\"%d\"} %d\n", name, b.Le, b.Count)
	}
	fmt.Fprintf(w, "repro_%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "repro_%s_sum %d\n", name, h.Sum)
	fmt.Fprintf(w, "repro_%s_count %d\n", name, h.Count)
}

// formatLabels renders a label set as {k="v",...}, keys sorted; empty sets
// render as the empty string.
func formatLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := "{"
	for i, k := range keys {
		if i > 0 {
			s += ","
		}
		s += k + "=" + strconv.Quote(labels[k])
	}
	return s + "}"
}

// formatFloat renders floats compactly and deterministically.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// errWriter latches the first write error so callers check once.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}
