package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// tiny keeps every workload's shape at sizes that run in milliseconds. The
// push-pull world stays above sampleAbove so the sampled decoration runs too.
var tiny = sizes{
	D: 2, Delta: 2,
	EarsN: 48, EarsF: 12,
	PushPullN:  2048,
	ConsensusN: 16, ConsensusF: 7, ConsensusRuns: 2,
	FuzzRuns:   24,
	WirePasses: 2,
	WireEarsN:  32, WireEarsF: 8, WireEarsSends: 64,
	WirePushPullN: 128, WirePushPullSends: 256,
	WireAverageN: 64, WireAverageSends: 256,
	BitsetN: 64, BitsetIters: 5,
}

func buildTiny(t *testing.T, name string, tracer sim.Tracer) instance {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	inst, err := w.build(tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	switch v := inst.(type) {
	case *gossipInstance:
		v.tracer = tracer
	case *consensusInstance:
		v.tracer = tracer
	}
	return inst
}

// The traced run must be observation-only like every other tracer: a run
// rebuilt from the layers with decorated nodes, adversary and evaluator does
// the same simulated work, event for event, as the undecorated public run.
func TestTracedRunIsObservationOnly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plainDigest, tracedDigest := sim.NewDigestTracer(), sim.NewDigestTracer()
			plain := buildTiny(t, w.name, plainDigest).run(true)
			rec := newRecorder()
			traced, _ := buildTiny(t, w.name, tracedDigest).traced(rec)

			if plain.Failed != 0 || traced.Failed != 0 {
				t.Fatalf("failed operations: plain %d, traced %d", plain.Failed, traced.Failed)
			}
			if plain.Msgs == 0 || plain.Attempted == 0 {
				t.Fatalf("empty run: %+v", plain)
			}
			if plain != traced {
				t.Errorf("counts differ:\n plain  %+v\n traced %+v", plain, traced)
			}
			if plainDigest.Sum() != tracedDigest.Sum() || plainDigest.Events() != tracedDigest.Events() {
				t.Errorf("event digest differs: plain %x over %d events, traced %x over %d",
					plainDigest.Sum(), plainDigest.Events(), tracedDigest.Sum(), tracedDigest.Events())
			}
			if sum := rec.summarize(0); len(sum.unaccounted) > 0 {
				t.Errorf("span accounting: %v", sum.unaccounted)
			}
		})
	}
}

// Every span of a repetition hangs under its root, and the root's duration
// is its children plus its self time.
func TestSpansAccountForTheRun(t *testing.T) {
	rec := newRecorder()
	inst := buildTiny(t, "consensus_tears", nil)
	inst.traced(rec)
	inst.traced(rec)
	for rep := 0; rep < 2; rep++ {
		sum := rec.summarize(rep)
		if len(sum.unaccounted) > 0 {
			t.Fatalf("rep %d: %v", rep, sum.unaccounted)
		}
		root := rec.spans[sum.root]
		var children int64
		for _, sp := range rec.spans {
			if sp.Rep != rep || sp.Parent == -1 {
				continue
			}
			if sp.Parent == sum.root {
				children += sp.dur()
			}
			for p := sp.Parent; p != sum.root; p = rec.spans[p].Parent {
				if p == -1 {
					t.Fatalf("rep %d: span %q does not hang under the root", rep, sp.Name)
				}
			}
		}
		if got := children + sum.self[rootSpan]; got != root.dur() {
			t.Errorf("rep %d: children %d + self %d = %d, root lasted %d", rep, children, sum.self[rootSpan], got, root.dur())
		}
		if sum.total["consensus.step"] == 0 || sum.total["sim.run"] == 0 {
			t.Errorf("rep %d: missing layer spans: %v", rep, sum.total)
		}
	}
}

// A traced child of every workload writes its trace file, and between them
// the children (plus the three comparisons the orchestrator makes) produce
// exactly the per-layer table.
func TestTracedChildrenCoverThePerLayerTable(t *testing.T) {
	produced := map[string]bool{
		"trace.overhead_share":              true,
		"sim.shard2_speedup":                true,
		"telemetry.recorder_overhead_share": true,
	}
	dir := t.TempDir()
	for _, w := range workloads {
		file := filepath.Join(dir, "trace-"+w.name+".json")
		rep := runChild(job{Mode: modeTraced, Workload: w.name, Seed: 3, MinReps: 1, TraceFile: file}, tiny)
		if rep.Error != "" || len(rep.Unaccounted) > 0 {
			t.Fatalf("%s: error %q, unaccounted %v", w.name, rep.Error, rep.Unaccounted)
		}
		if rep.Layer["repro.run_s"] <= 0 || rep.Layer["bitset.matrix_count_ns"] <= 0 {
			t.Errorf("%s: a time that is measured everywhere reads 0: %v", w.name, rep.Layer)
		}
		for name := range rep.Layer {
			produced[name] = true
		}
		var trace struct{ Spans []span }
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &trace); err != nil || len(trace.Spans) == 0 {
			t.Errorf("%s: trace file: %v, %d spans", w.name, err, len(trace.Spans))
		}
	}
	table := map[string]bool{}
	for _, m := range perLayer {
		table[m.name] = true
	}
	if !reflect.DeepEqual(produced, table) {
		for name := range produced {
			if !table[name] {
				t.Errorf("%s is produced but not in the per-layer table", name)
			}
		}
		for name := range table {
			if !produced[name] {
				t.Errorf("%s is in the per-layer table but nothing produces it", name)
			}
		}
	}
}

// The timed child reports identical work on every repetition.
func TestTimedChildRepeatsIdenticalWork(t *testing.T) {
	for _, w := range workloads {
		rep := runChild(job{Mode: modeTimed, Workload: w.name, Seed: 5, MinReps: 2, Telemetry: w.probes}, tiny)
		if rep.Error != "" || len(rep.Reps) != 2 {
			t.Fatalf("%s: error %q, %d reps", w.name, rep.Error, len(rep.Reps))
		}
		for _, r := range rep.Reps {
			if !r.Counts.sameWork(rep.Warm) || r.Counts.Failed != 0 {
				t.Errorf("%s: repetition %+v, warm-up %+v", w.name, r.Counts, rep.Warm)
			}
		}
		if w.probes && len(rep.TelemetryNs) != 2 {
			t.Errorf("%s: %d telemetry repetitions", w.name, len(rep.TelemetryNs))
		}
	}
}

// BENCHMARK.json is written by hand; it must say what the tables here say.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"benchmark"}) || file.RunSeconds != defaultSeconds {
		t.Errorf("paths %v, run_seconds %d", file.Paths, file.RunSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, file.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, m)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present: %v", kind, m.name, !bounded)
			} else if bounded && *g.Bound != m.bound {
				t.Errorf("%s %s: bound %v, want %v", kind, m.name, *g.Bound, m.bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	for _, m := range endToEnd {
		if _, ok := repeatGap[m.name]; !ok {
			t.Errorf("%s has no -selfcheck gap", m.name)
		}
	}
}
